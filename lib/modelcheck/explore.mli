open History
open Sched

(** Bounded exhaustive exploration of interleavings and crash points.

    Because process programs are deterministic given the values their
    primitive steps return, an execution is fully determined by its
    {e decision sequence}: at each point, either some process takes its
    next primitive step or the system crashes.  The explorer walks every
    decision sequence in a bounded family depth-first on one live
    machine and session, backtracking by {!Session.mark}/[rewind] over
    the store's write journal (discarded fibers are rebuilt lazily by
    ghost replay), and judges every resulting history with one
    incremental {!Lin_check.Session} kept in step with the decision
    stack (frontier marked, extended and rewound alongside the DFS), so a
    leaf verdict costs O(new events since the shared prefix) instead of
    a whole-history Wing–Gong restart.

    Full interleaving exploration explodes combinatorially, so the family
    is {e delay-bounded} (Emmi–Qadeer–Rakamarić style): a run may switch
    the running process at most [switch_budget] times and crash at most
    [crash_budget] times, but switches and crashes may occur {e between
    any two primitive steps}.  Small budgets already cover the executions
    the paper's proofs construct (Figures 1 and 2 use two to three context
    switches), and every scheduling bug this repository's ablations plant
    is found with budgets ≤ 3.

    {b Pruning} ([prune], on by default) keeps larger budgets affordable
    (see DESIGN.md, "Scaling the checker"): each DFS node is keyed by a
    compact fingerprint of (full memory contents, session state digest,
    scheduler state) and its subtree summary is memoised.  Revisiting an
    equivalent node adds the cached executions/violations counts instead
    of re-exploring, so pruning is {e exact}: [executions], [truncated],
    [total_violations] and [distinct_shared_configs] are identical to the
    unpruned search's; only [nodes] (physical visits) shrinks.  Commuting
    interleavings of non-interfering steps all land on the same key,
    which is where the savings come from.

    The explorer also accumulates the set of pairwise
    non-memory-equivalent shared-memory configurations visited, which is
    how experiment E1 measures reachable configurations against
    Theorem 1's 2^(N−1) bound. *)

type reduction = [ `None | `Dpor | `Dpor_sym | `Dpor_sym_memo ]
(** Search-space reduction applied during child generation (default
    [`None] — the committed baselines and every parity contract above
    are stated for the unreduced search).

    [`Dpor]: dynamic partial-order reduction with sleep sets over the
    per-cell dependency relation, strengthened by a {e source-set}
    rule.  After a step [t] is explored at a node, [t] is {e slept} for
    the later sibling subtrees and stays slept through independent
    steps (two steps are dependent iff they may touch the same cell
    with at least one writer; crashes are dependent with everything),
    so commuting interleavings of independent steps are pruned
    {e before} being explored rather than merely deduplicated
    afterwards.  A step is only slept when executing it emitted no
    history events, which keeps the linearizability checker's event
    order out of the commutation.  The source-set rule goes further
    when the {e running} process's pending step touches at most its own
    private cell, is sleepable, proves event-silent, and the path has
    no crash budget left: that single child is then a sufficient
    {e source set} — every maximal execution from the node must
    eventually take the step, commuting it to the front crosses only
    steps it is independent of, costs no switch (the process is already
    running) and can only {e lower} later siblings' preemption counts,
    so the entire remaining sibling frontier is skipped (counted in
    [source_skips]).

    [`Dpor_sym]: additionally prunes process symmetry.  A runnable
    process [p] that has never stepped is skipped when some
    already-explored runnable [q < p] has also never stepped, runs a
    statically identical workload, and the configuration is invariant
    under transposing [p] and [q] ({!Sym.swap_invariant}) — subtrees
    then identical up to renaming.  Requires the instance to declare
    {!Sched.Obj_inst.id_symmetric}; otherwise behaves exactly like
    [`Dpor].

    [`Dpor_sym_memo]: additionally keys the subtree memo table and the
    configuration set on {e symmetry-canonical} digests, so a node that
    is a π-image (π ∈ S_N) of an already-explored node hits the memo
    instead of being re-explored, and [distinct_shared_configs] counts
    whole orbits at once via exact orbit-size weighting
    ({!Config_set.create}'s [~canonical] mode) while physically
    visiting one representative per orbit.  Canonical keys demand more
    than [`Dpor_sym]'s pairwise pruning: the instance must declare
    [id_symmetric], all workloads must be equal and non-empty, N ≤ 20,
    pruning must be on, and a node's path must have spent no crash
    budget (crashed paths fall back to raw keys — still sound, just
    unmerged).  When any gate fails the mode degrades to exactly
    [`Dpor_sym].  The delay-bounded switch accounting is
    permutation-equivariant (a step's cost depends only on whether its
    process {e is} the running process, never on pid values) and every
    budget component is part of the canonical key, so transferring a
    memoised subtree summary across an orbit is structurally sound —
    with one caveat: which nodes get memoised depends on exploration
    order, so reduced-vs-unreduced {e node} counts differ by
    construction while executions/violations/configs transfer exactly
    per key.  A hash collision between non-π-related nodes would merge
    them ([Config_set]'s Exact mode audits exactly this event for the
    configuration set; the quotient property tests drive it).

    Soundness contract: every node the reduced search visits is a node
    the unreduced search visits, so [distinct_shared_configs] is always
    a certified {e lower bound} on the reachable count (what Theorem 1's
    experiment needs; note [`Dpor_sym] visits only one representative
    per symmetry orbit without weighting, so configuration {e counts}
    should be read from [`Dpor] or [`Dpor_sym_memo]).  Because a pruned
    execution's representative can cost a different number of switches
    under [`Dpor_sym]'s unweighted pairwise rule, reduction is NOT
    guaranteed to preserve verdicts or counts exactly at tight budgets;
    the reduction parity tests pin verdict agreement empirically on the
    ablations and random workloads. *)

val reduction_name : reduction -> string
(** ["none"] / ["dpor"] / ["dpor+sym"] / ["dpor+sym-memo"] — the label
    used in metrics and JSON. *)

type config = {
  switch_budget : int;  (** max context switches per execution, >= 0 *)
  crash_budget : int;
      (** max crashes per execution, >= 0; a crash keeps every dirty
          cache line ({!Nvm.Fault_model.keep_all}) *)
  max_steps : int;  (** per-execution step bound (safety) *)
  policy : Session.policy;
  prune : bool;  (** memoise subtrees by state fingerprint (exact) *)
  exact_configs : bool;
      (** audit config-set fingerprints with full snapshots *)
  reduction : reduction;  (** see {!reduction}; default [`None] *)
  node_budget : int;
      (** stop after physically visiting this many DFS nodes (0 = no
          bound, the default; >= 0).  A capped run sets
          [outcome.capped]; its counters are partial but remain valid
          lower bounds.  The cap is on {e physical} nodes, which is what
          makes reduced and unreduced searches comparable under the same
          budget. *)
}

val default_config : config
(** switch budget 3, crash budget 1, 2_000 steps, [Retry]; pruning on,
    fingerprint-mode configuration counting, no reduction, no node
    budget. *)

type violation = {
  decisions : Decision.t list;
      (** the schedule that exhibits it; {!Driver.replay} re-runs it *)
  history : Event.t list;
  msg : string;
}

type metrics = {
  dedup_hits : int;  (** nodes answered from the visited set *)
  nodes_saved : int;
      (** logical nodes the memo hits avoided visiting; the unpruned
          search would have visited [nodes + nodes_saved] nodes *)
  peak_visited : int;  (** memo-table entries *)
  memo_bytes : int;
      (** {!Memo_tbl.bytes} of the memo at the end of the search: its
          slots live off the GC heap, so [bytes_per_node] does not count
          them *)
  fingerprint_collisions : int;
      (** {!Config_set.collisions} of the configuration set; always 0
          unless [exact_configs] *)
  elapsed_s : float;
  nodes_per_sec : float;  (** physically visited nodes per wall-clock second *)
  depth_hist : (int * int) list;
      (** (decision-sequence length, visited nodes at that depth),
          ascending — the work profile of the search *)
  rewound_cells : int;
      (** total cell restorations performed by rewinds *)
  intern_hit_rate : float;
      (** share of the run's {!Nvm.Value.hc_of} calls that a
          preallocated constant node answered ({!Nvm.Value.hc_stats}),
          0 if no traffic.  The field keeps its name because
          [bench/perf] reads it by name. *)
  leaf_checks : int;  (** leaf histories submitted to the checker *)
  lin_elapsed_s : float;
      (** checker-attributable wall time: event pushes, frontier
          rewinds and verdicts *)
  lin_checks_per_sec : float;  (** [leaf_checks / lin_elapsed_s] *)
  lin_events_pushed : int;
      (** events actually fed to the checker; each shared-prefix event
          is pushed once, not once per leaf below it *)
  lin_events_total : int;  (** sum of leaf history lengths *)
  lin_reuse_rate : float;
      (** [1 - pushed/total]: the fraction of per-leaf checker work the
          frontier reuse avoided *)
  frontier_hist : (int * int) list;
      (** (log2 bucket of checker frontier size, nodes sampled at that
          size), ascending; bucket [b] covers sizes [2^(b-1) .. 2^b - 1]
          (bucket 0 = empty frontier) *)
  reduction : string;  (** {!reduction_name} of the reduction that ran *)
  sleep_skips : int;  (** children pruned by the DPOR sleep set *)
  sym_skips : int;  (** children pruned by symmetry canonicalisation *)
  source_skips : int;
      (** siblings pruned by the source-set rule (the running process's
          local silent step was a sufficient singleton source set) *)
  canonical_orbits : int;
      (** [`Dpor_sym_memo] with the canonical gates satisfied: distinct
          S_N orbits of shared configurations actually stored, of which
          [distinct_shared_configs] is the orbit-size-weighted
          expansion.  0 under every other mode (the configuration set
          is then unweighted). *)
  minor_words : float;
      (** words allocated on the minor heap during the search
          ({!Dtc_util.Alloc_stats}) *)
  promoted_words : float;  (** minor-heap words promoted to the major heap *)
  minor_collections : int;  (** minor GCs triggered by the search *)
  bytes_per_node : float;
      (** total allocated bytes (minor + major − promoted, in words ×
          word size) divided by physically visited nodes — the
          allocation-discipline figure the bench gates bound *)
}

type outcome = {
  executions : int;  (** complete executions explored (incl. memoised) *)
  truncated : int;  (** executions cut off by [max_steps] *)
  nodes : int;  (** DFS nodes physically visited *)
  violations : violation list;  (** the first 3 violations found *)
  total_violations : int;  (** all violating executions, uncapped *)
  distinct_shared_configs : int;
      (** pairwise non-memory-equivalent shared-memory configurations
          seen anywhere in the exploration *)
  capped : bool;
      (** the [node_budget] stopped the search; all counters are partial
          (valid lower bounds over what was actually visited) *)
  metrics : metrics;
}

val explore :
  mk:(unit -> Runtime.Machine.t * Obj_inst.t) ->
  workloads:Spec.op list array ->
  config ->
  outcome
(** [mk] must build a fresh machine and instance on every call (the
    explorer builds one for the search, plus one to read
    [id_symmetric] under [`Dpor_sym_memo]).  A negative switch, crash
    or node budget raises [Invalid_argument]. *)
