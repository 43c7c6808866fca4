open Nvm
open History
open Sched

type decision = Step of int | Crash

let pp_decision fmt = function
  | Step pid -> Format.fprintf fmt "p%d" pid
  | Crash -> Format.fprintf fmt "CRASH"

type reduction = [ `None | `Dpor | `Dpor_sym | `Dpor_sym_memo ]

let reduction_name = function
  | `None -> "none"
  | `Dpor -> "dpor"
  | `Dpor_sym -> "dpor+sym"
  | `Dpor_sym_memo -> "dpor+sym-memo"

type config = {
  switch_budget : int;
  crash_budget : int;
  max_steps : int;
  policy : Session.policy;
  wipe : Fault_model.wipe;
  max_violations : int;
  prune : bool;
  exact_configs : bool;
  reduction : reduction;
  node_budget : int;
}

let default_config =
  {
    switch_budget = 3;
    crash_budget = 1;
    max_steps = 2_000;
    policy = Session.Retry;
    wipe = Fault_model.keep_all;
    max_violations = 3;
    prune = true;
    exact_configs = false;
    reduction = `None;
    node_budget = 0;
  }

(* ---- dynamic partial-order reduction --------------------------------

   Sleep sets over the per-cell dependency relation: after exploring a
   step [t] at a node, [t] is slept for the later sibling subtrees; in
   a child reached by [u], only the slept entries independent of [u]
   survive.  Two candidate steps are dependent iff they may touch the
   same cell with at least one writer; a crash is dependent with
   everything (it is never slept and flushes the sleep set of its
   child).  A step is only slept if executing it emitted no history
   events, so commuting it with independent steps permutes neither
   memory effects nor the event order the linearizability checker sees.

   Under the delay-bounded budgets the commuted representative of a
   pruned execution can cost a different number of context switches, so
   reduction is NOT exactly verdict-preserving in general (the parity
   tests pin it empirically on the ablations and random workloads);
   what always holds is that every visited configuration is reachable,
   so reduced distinct-config counts are certified lower bounds — which
   is exactly what the Theorem 1 experiment needs. *)

exception Node_cap
(* raised when [node_budget] physical nodes have been visited; the
   partial counters remain valid lower bounds (nothing is ever counted
   that was not actually explored) *)

let req_writes = function
  | Runtime.Prim.Read _ -> false
  | Runtime.Prim.Write _ | Runtime.Prim.Cas _ | Runtime.Prim.Faa _
  | Runtime.Prim.Persist _ | Runtime.Prim.Fence ->
      true
  | Runtime.Prim.Yield -> false

let independent r1 r2 =
  match (r1, r2) with
  | Runtime.Prim.Yield, _ | _, Runtime.Prim.Yield -> true
  | Runtime.Prim.Fence, _ | _, Runtime.Prim.Fence -> false
  | _ -> (
      match (Runtime.Prim.touches r1, Runtime.Prim.touches r2) with
      | Some l1, Some l2 ->
          l1.Loc.id <> l2.Loc.id || not (req_writes r1 || req_writes r2)
      | _ -> false)

(* Fence conflicts with everything, so sleeping it can never prune *)
let sleepable = function Runtime.Prim.Fence -> false | _ -> true

let sleep_mask sleep =
  List.fold_left (fun m (pid, _) -> m lor (1 lsl pid)) 0 sleep

(* ---- source sets ----------------------------------------------------

   The persistent-set side of the reduction: when the running process's
   pending step touches only state no other process can ever conflict
   with — its own private cell, or nothing (Yield) — then {that step}
   is a persistent (source) set at the node, and after exploring it the
   remaining siblings need not be explored at all.  Soundness: the step
   stays pending and enabled while others run (nothing blocks in this
   model), every maximal execution from the node eventually takes it,
   and commuting it to the front crosses only steps it is independent
   of, so each sibling subtree's executions are covered by the explored
   child.  Three path conditions keep the commutation honest:

   - the step must be event-silent (checked after executing it, like
     sleep sets), so the linearizability checker sees the same event
     orders;
   - it must belong to the {e current} process: moving a zero-cost step
     to the front of a schedule merges the segments around its old
     position and can only lower the preemption count, so every covered
     execution still fits the switch budget — this is the
     permutation-safe half of the delay-bounded accounting;
   - no crash budget may remain on the path (a write cannot be commuted
     across a crash that might drop it).

   Unlike sleep sets — which prune one already-explored step from
   sibling subtrees — a fired source set prunes the {e entire} rest of
   the sibling frontier, which is where the bulk of the node reduction
   on private-step-rich workloads comes from.  Even the Theorem 1 CAS
   chains are such workloads — every operation brackets its shared CAS
   with private announcement/response writes, on which the rule fires
   constantly (it roughly halves the dpor node counts of the committed
   N=5/6 lower-bound rows).  Certified configuration counts are
   untouched: only covered executions are cut, never states. *)

let req_local pid = function
  | Runtime.Prim.Yield -> true
  | Runtime.Prim.Fence -> false
  | r -> (
      match Runtime.Prim.touches r with
      | Some l -> ( match l.Loc.kind with Loc.Private p -> p = pid | Loc.Shared -> false)
      | None -> false)

(* does the source-set fast path apply to [cur]'s pending step at a
   node with no crash budget left?  (Silence is checked by the caller
   after the step executes.) *)
let source_eligible ~reduction ~crash_budget ~cur ~crashes session =
  reduction <> `None
  && crashes >= crash_budget
  &&
  match cur with
  | None -> false
  | Some c -> (
      match Session.pending_request session c with
      | Some r -> req_local c r && sleepable r
      | None -> false)

type violation = {
  decisions : decision list;
  history : Event.t list;
  msg : string;
}

type metrics = {
  dedup_hits : int;
  nodes_saved : int;
  peak_visited : int;
  fingerprint_collisions : int;
  elapsed_s : float;
  nodes_per_sec : float;
  depth_hist : (int * int) list;
  rewound_cells : int;
  intern_hit_rate : float;
  leaf_checks : int;
  lin_elapsed_s : float;
  lin_checks_per_sec : float;
  lin_events_pushed : int;
  lin_events_total : int;
  lin_reuse_rate : float;
  frontier_hist : (int * int) list;
  reduction : string;
  sleep_skips : int;
  sym_skips : int;
  source_skips : int;
  canonical_orbits : int;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  bytes_per_node : float;
}

type outcome = {
  executions : int;
  truncated : int;
  nodes : int;
  violations : violation list;
  total_violations : int;
  distinct_shared_configs : int;
  capped : bool;
  metrics : metrics;
}

(* The visited set is {!Memo_tbl}: per key, a summary of what the
   unpruned engine would have accumulated at-and-below a node with this
   state (excluding the node's own visit, which every hit performs
   anyway to learn the state).  Adding a cached summary instead of
   re-exploring reproduces the unpruned counters exactly — pruning
   changes [nodes] (physical visits) but never
   [executions]/[truncated]/[total_violations]. *)

(* Visited-set key: full-memory fingerprint (private NVM drives
   recovery, so shared cells alone would merge states with different
   futures), the session's state digest, and the scheduler state the
   delay-bounded DFS branches on (running process, spent budgets).  Two
   nodes with equal keys have identical subtrees — see the soundness
   note on {!Session.state_digest} and DESIGN.md.

   Under reduction two more components join the key, both constant 0
   when the reduction is off (so default-path memo behavior — and every
   committed counter — is unchanged): the sleep-set pid mask (a slept
   subtree summary must not be reused at a sleep-free revisit), and,
   under symmetry, the ever-stepped pid mask (interchangeability of two
   processes depends on neither having stepped on the path).

   The components are mixed into ONE 63-bit word rather than kept as a
   tuple: hashing and chain-comparing an 8-field boxed tuple was the
   single most expensive line of the hot loop (polymorphic hash
   traverses the tuple on every probe), while an immediate-int key
   probes in O(1) words.  The digest and memory fingerprints are
   already 63-bit hashes, so the memo was always exact only up to hash
   collisions; mixing adds nothing new in kind, and the bench --compare
   gate pins the resulting counters against the committed baselines
   exactly. *)
(* [land max_int] drops the sign bit: {!Memo_tbl} takes non-negative
   keys only (it marks free slots with -1); 62 bits of key keep the
   collision odds negligible. *)
let mk_key ~fa ~fb ~dg ~c ~switches ~crashes ~smask ~stepped =
  let m = Value.mix in
  m (m (m (m (m (m (m fa fb) dg) c) switches) crashes) smask) stepped
  land max_int

type state = {
  cfg : config;
  configs : Config_set.t;
  visited : Memo_tbl.t;
  (* Histograms are dense int arrays indexed by bucket — a Hashtbl
     bump per node was measurable allocation in the hot loop.
     [depth_hist] grows on demand; the log2-bucketed ones are bounded
     by the word size. *)
  mutable depth_hist : int array;
  frontier_hist : int array;
      (* incremental checker: log2-bucketed frontier size per node *)
  lin : Lin_check.Session.t;
      (* the one incremental checker session, synced along the decision
         stack *)
  mutable leaf_checks : int;
  mutable lin_pushed : int;  (* events fed to the checker *)
  mutable lin_total : int;  (* sum of leaf history lengths *)
  mutable lin_elapsed : float;  (* checker-attributable wall time *)
  mutable executions : int;
  mutable truncated : int;
  mutable nodes : int;
  mutable violations : violation list;
  mutable n_violations : int;
  mutable dedup_hits : int;
  mutable nodes_saved : int;
  mutable rewound : int;  (* cells restored by rewinds *)
  mutable intern_hit_rate : float;  (* Value.hc_of constant share *)
  mutable sleep_skips : int;  (* children pruned by the sleep set *)
  mutable sym_skips : int;  (* children pruned by symmetry *)
  mutable source_skips : int;  (* sibling frontiers cut by source sets *)
  mutable capped : bool;  (* node budget exhausted; counters are partial *)
  mutable rbufs : int array array;
      (* per-depth runnable-pid buffers: slot [d] is reused by every
         node at depth [d] (safe — recursion only visits deeper slots
         while a node's buffer is live) *)
  mutable marks : Session.mark array;
      (* per-depth pooled session marks, same reuse discipline;
         distinct marks in slots 0..marks_n-1 *)
  mutable marks_n : int;
  n_procs : int;
  wl_class : int array;
      (* wl_class.(p) = least q with workloads.(q) = workloads.(p):
         symmetry candidates must run statically identical programs *)
  sym_memo : bool;
      (* canonical memo keys + orbit-weighted config counting active:
         reduction is [`Dpor_sym_memo], the instance declared
         [id_symmetric], the workloads are uniform and non-empty (so
         ranks and creation uids relabel cleanly), pruning is on, and
         N <= 20 (orbit weights must not overflow).  When any gate
         fails the mode degrades to exactly [`Dpor_sym]. *)
  (* per-node scratch for the canonical process order (sym_memo only;
     [||] otherwise).  All length n_procs: *)
  c_evr : int array;  (* first-occurrence event rank, max_int if none *)
  c_flags : int array;  (* (stepped << 1) lor slept *)
  c_key : int array;  (* pi-invariant per-process signature *)
  c_ord : int array;  (* sort scratch: canonical position -> pid *)
  c_inv : int array;  (* rank -> pid (the chosen permutation) *)
  c_rank : int array;  (* pid -> rank *)
  c_pacc : int array;  (* per-process private-cell digest accumulator *)
  c_slot : int array;  (* per-process private-slot counter *)
  mutable c_sigs : sig_slot array array;
      (* per-depth digests ([slot_sig]), reused like [rbufs]: self keys
         at [pid], relabeled ones at [n + pid] *)
}

and sig_slot = {
  mutable s_stamp : int;  (* {!Session.mut_stamp} cut for; -1 empty *)
  mutable s_perm : int;  (* permutation hash cut for (0 for self keys) *)
  mutable s_cur : Session.sig_cursor;  (* carries the digest *)
}

let mk_state ~sym_memo cfg workloads spec =
  let n_procs = Array.length workloads in
  let scr () = if sym_memo then Array.make n_procs 0 else [||] in
  {
    cfg;
    configs =
      Config_set.create
        ~mode:(if cfg.exact_configs then Config_set.Exact else Config_set.Fingerprint)
        ?canonical:(if sym_memo then Some n_procs else None)
        ();
    visited = Memo_tbl.create 65536;
    depth_hist = Array.make 64 0;
    frontier_hist = Array.make 64 0;
    lin = Lin_check.Session.create spec;
    leaf_checks = 0;
    lin_pushed = 0;
    lin_total = 0;
    lin_elapsed = 0.;
    executions = 0;
    truncated = 0;
    nodes = 0;
    violations = [];
    n_violations = 0;
    dedup_hits = 0;
    nodes_saved = 0;
    rewound = 0;
    intern_hit_rate = 0.;
    sleep_skips = 0;
    sym_skips = 0;
    source_skips = 0;
    capped = false;
    rbufs = [||];
    marks = [||];
    marks_n = 0;
    n_procs;
    wl_class =
      Array.init n_procs (fun p ->
          let rec first q =
            if workloads.(q) = workloads.(p) then q else first (q + 1)
          in
          first 0);
    sym_memo;
    c_evr = scr ();
    c_flags = scr ();
    c_key = scr ();
    c_ord = scr ();
    c_inv = scr ();
    c_rank = scr ();
    c_pacc = scr ();
    c_slot = scr ();
    c_sigs = [||];
  }


(* log2-bucketed histograms fit in 64 slots by construction *)
let bump_fixed (h : int array) b = h.(b) <- h.(b) + 1

let bump_depth st d =
  let h = st.depth_hist in
  if d < Array.length h then h.(d) <- h.(d) + 1
  else begin
    let b = Array.make (max (d + 1) (2 * Array.length h)) 0 in
    Array.blit h 0 b 0 (Array.length h);
    b.(d) <- 1;
    st.depth_hist <- b
  end

(* [a] grown to hold index [depth], new slots [[||]] *)
let grow a depth =
  let b = Array.make (max (depth + 1) ((2 * Array.length a) + 8)) [||] in
  Array.blit a 0 b 0 (Array.length a);
  b

let get_rbuf st depth =
  if depth >= Array.length st.rbufs then st.rbufs <- grow st.rbufs depth;
  if Array.length st.rbufs.(depth) < st.n_procs then
    st.rbufs.(depth) <- Array.make st.n_procs 0;
  st.rbufs.(depth)

let get_mark st session depth =
  if depth >= Array.length st.marks then begin
    let b =
      Array.make
        (max (depth + 1) ((2 * Array.length st.marks) + 8))
        (Session.mark session)
    in
    Array.blit st.marks 0 b 0 st.marks_n;
    st.marks <- b
  end;
  (* slots past [marks_n] alias the growth filler: materialise distinct
     marks up to [depth] before handing one out *)
  while st.marks_n <= depth do
    st.marks.(st.marks_n) <- Session.mark session;
    st.marks_n <- st.marks_n + 1
  done;
  st.marks.(depth)

(* ascending-index scan membership over the filled prefix of a runnable
   buffer — the allocation-free [List.mem] of the hot loop *)
let buf_mem buf n x =
  let rec go i = i < n && (buf.(i) = x || go (i + 1)) in
  go 0

(* ---- symmetry-canonical memo keys -----------------------------------

   Under [sym_memo] a node whose path spent no crash budget is keyed on
   a digest constant on its whole S_N orbit, so π-images of an explored
   subtree hit the memo instead of being re-explored.  The digest is
   built by choosing ONE canonical process order per node and
   relabeling everything through it:

   1. rank processes by (post-creation first-occurrence event rank,
      stepped-on-path bit, slept bit, π-invariant per-process
      signature, pid).  Every component except the final pid tiebreak
      is assigned identically by two π-related executions, so related
      nodes choose matching orders; a tie broken by pid either involves
      genuinely interchangeable processes (any order digests equally)
      or hash-collided ones (the digests then differ — a missed dedup,
      never a false merge).
   2. fold, in rank order, each process's full logged interaction
      signature ({!Session.proc_sym_sig}) and private-cell block, with
      pid-indexed vectors and creation uids relabeled through the rank
      ({!Sym.hash_perm}); shared cells fold positionally; the event
      stream folds via the session's incrementally-maintained
      {!Session.sym_events_sig}.
   3. fold the scheduler state — rank of the running process, budgets,
      rank-relabeled sleep and stepped masks.  The delay-bounded switch
      accounting is itself permutation-equivariant (a step's cost
      depends only on whether its process IS the running one and
      whether the running one is still runnable — never on pid values),
      and every budget-relevant quantity is in the key, which is what
      makes transferring a memo summary across the orbit structurally
      sound rather than empirically pinned.

   Nodes on crashed paths fall back to the raw key (recovery event
   batches would break the positional correspondence), and the two key
   families are tag-separated so they can share the memo table. *)

(* [pid]'s walk, self-keyed or relabeled through the chosen permutation *)
let walk st session ~self pid from =
  let n = st.n_procs and inv = st.c_inv and rank = st.c_rank in
  Session.proc_sym_sig session pid from
    ~hash_value:(fun v ->
      if self then Sym.self_key ~n ~pid ~seed:5 v
      else Sym.hash_perm ~n ~inv ~seed:7 v)
    ~hash_uid:(fun u -> if u >= n then u else if self then -1 else rank.(u))

(* [pid]'s digest at a crash-free node of depth [depth], cut for the
   permutation hash [perm] (0 for self keys).  The parent's slot is
   filled: every ancestor of a crash-free node keyed canonically.  An
   equal stamp means identical process state, so an equal (stamp, perm)
   here or in the parent reuses that cursor; an equal perm resumes the
   parent's walk (never this slot's: it may hold a sibling's entries);
   a new permutation walks in full. *)
let slot_sig st session ~depth ~self pid ~perm =
  if depth >= Array.length st.c_sigs then st.c_sigs <- grow st.c_sigs depth;
  if Array.length st.c_sigs.(depth) = 0 then
    st.c_sigs.(depth) <-
      Array.init (2 * st.n_procs) (fun _ ->
          { s_stamp = -1; s_perm = 0; s_cur = Session.sig_start });
  let ix = if self then pid else st.n_procs + pid in
  let me = st.c_sigs.(depth).(ix) and stamp = Session.mut_stamp session pid in
  if not (me.s_stamp = stamp && me.s_perm = perm) then begin
    let up = if depth = 0 then me else st.c_sigs.(depth - 1).(ix) in
    let resume = depth > 0 && up.s_perm = perm in
    let from = if resume then up.s_cur else Session.sig_start in
    me.s_cur <-
      (if resume && up.s_stamp = stamp then from
       else walk st session ~self pid from);
    me.s_stamp <- stamp;
    me.s_perm <- perm
  end;
  Session.sig_digest me.s_cur

let canon_order st session ~depth ~smask ~stepped =
  let n = st.n_procs in
  let evr = st.c_evr
  and fl = st.c_flags
  and ky = st.c_key
  and ord = st.c_ord
  and inv = st.c_inv
  and rank = st.c_rank in
  for p = 0 to n - 1 do
    let r = Session.sym_rank session p in
    evr.(p) <- (if r < 0 then max_int else r);
    fl.(p) <-
      (if stepped land (1 lsl p) <> 0 then 2 else 0)
      lor (if smask land (1 lsl p) <> 0 then 1 else 0);
    ky.(p) <- slot_sig st session ~depth ~self:true p ~perm:0;
    ord.(p) <- p
  done;
  (* lexicographic (evr, flags, key, pid) insertion sort — n is tiny *)
  let lt p q =
    evr.(p) < evr.(q)
    || (evr.(p) = evr.(q)
       && (fl.(p) < fl.(q)
          || (fl.(p) = fl.(q)
             && (ky.(p) < ky.(q) || (ky.(p) = ky.(q) && p < q)))))
  in
  for i = 1 to n - 1 do
    let x = ord.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && lt x ord.(!j) do
      ord.(!j + 1) <- ord.(!j);
      decr j
    done;
    ord.(!j + 1) <- x
  done;
  for r = 0 to n - 1 do
    inv.(r) <- ord.(r);
    rank.(ord.(r)) <- r
  done

let canon_mem_digest st mem =
  let n = st.n_procs in
  let inv = st.c_inv in
  let pacc = st.c_pacc and slot = st.c_slot in
  Array.fill pacc 0 n 0x9e37;
  Array.fill slot 0 n 0;
  let glob = ref 0x51f0 in
  let shared_ix = ref 0 in
  for i = 0 to Mem.n_locs mem - 1 do
    let loc = Mem.loc_by_id mem i in
    let v = Mem.read mem loc in
    match loc.Loc.kind with
    | Loc.Shared ->
        glob :=
          Value.mix !glob
            (Value.mix !shared_ix (Sym.hash_perm ~n ~inv ~seed:3 v));
        incr shared_ix
    | Loc.Private p when p < n ->
        let s = slot.(p) in
        slot.(p) <- s + 1;
        pacc.(p) <-
          Value.mix pacc.(p) (Value.mix s (Sym.hash_perm ~n ~inv ~seed:3 v))
    | Loc.Private _ -> ()
  done;
  let acc = ref !glob in
  for r = 0 to n - 1 do
    acc := Value.mix !acc pacc.(inv.(r))
  done;
  !acc

let canon_key st session machine ~depth ~cur ~switches ~crashes ~sleep ~stepped =
  let n = st.n_procs in
  canon_order st session ~depth ~smask:(sleep_mask sleep) ~stepped;
  let inv = st.c_inv and rank = st.c_rank in
  let acc = ref 0x5ca90 in
  acc := Value.mix !acc (Session.sym_events_sig session);
  acc := Value.mix !acc (Session.uids session);
  acc := Value.mix !acc (Session.steps session);
  (* the rank-relabeled digest of a process depends on its own log AND
     on the whole permutation (relabeling runs through [inv]/[rank]),
     so slots are keyed on (stamp, permutation hash).  A hash collision
     here merely reuses a digest cut for another permutation — the same
     63-bit collision class the memo key already lives in. *)
  let psig = ref 0x7fb5 in
  for r = 0 to n - 1 do
    psig := Value.mix !psig inv.(r)
  done;
  let psig = !psig in
  for r = 0 to n - 1 do
    acc := Value.mix !acc (slot_sig st session ~depth ~self:false inv.(r) ~perm:psig)
  done;
  acc := Value.mix !acc (canon_mem_digest st (Runtime.Machine.mem machine));
  let c = match cur with None -> -1 | Some pid -> rank.(pid) in
  let rsleep =
    List.fold_left (fun m (pid, _) -> m lor (1 lsl rank.(pid))) 0 sleep
  in
  let rstepped = ref 0 in
  for p = 0 to n - 1 do
    if stepped land (1 lsl p) <> 0 then rstepped := !rstepped lor (1 lsl rank.(p))
  done;
  let m = Value.mix in
  m (m (m (m (m !acc c) switches) crashes) rsleep) !rstepped land max_int

let log2_bucket n =
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* ---- incremental-checker plumbing ----------------------------------

   The state carries ONE [Lin_check.Session] whose history mirrors the
   decision stack: on entering a DFS node whose parent had [hlen]
   events, the checker is marked and fed the [event_count - hlen] events
   this node's decision added (the session spine is newest-first, so the
   delta is its prefix); on leaving, it is rewound.  A leaf verdict then
   reads the already-maintained frontier instead of re-running Wing–Gong
   over the whole history.  All checker-attributable wall time is
   accumulated in [lin_elapsed]. *)

let take_rev k l =
  let rec go k l acc =
    if k = 0 then acc
    else match l with [] -> acc | x :: tl -> go (k - 1) tl (x :: acc)
  in
  go k l []

let lin_enter st ~session ~hlen =
  let ls = st.lin in
  let t0 = Unix.gettimeofday () in
  let m = Lin_check.Session.mark ls in
  let here = Session.event_count session in
  List.iter
    (Lin_check.Session.push_event ls)
    (take_rev (here - hlen) (Session.events_rev session));
  st.lin_pushed <- st.lin_pushed + (here - hlen);
  st.lin_elapsed <- st.lin_elapsed +. (Unix.gettimeofday () -. t0);
  bump_fixed st.frontier_hist (log2_bucket (Lin_check.Session.frontier_size ls));
  m

let lin_leave st m =
  let t0 = Unix.gettimeofday () in
  Lin_check.Session.rewind st.lin m;
  st.lin_elapsed <- st.lin_elapsed +. (Unix.gettimeofday () -. t0)

(* Leaf verdict: driver anomalies short-circuit; otherwise the synced
   incremental session answers in O(frontier). *)
let leaf_verdict st ~session =
  match Driver.anomaly_verdict (Session.anomalies session) with
  | Some v -> v
  | None ->
      st.leaf_checks <- st.leaf_checks + 1;
      st.lin_total <- st.lin_total + Session.event_count session;
      let t0 = Unix.gettimeofday () in
      let v = Lin_check.Session.verdict st.lin in
      st.lin_elapsed <- st.lin_elapsed +. (Unix.gettimeofday () -. t0);
      v

(* [decisions] arrives newest-first (the DFS stack as-is); it is only
   materialised oldest-first when a violation sample is actually kept,
   so the common all-green leaf allocates no reversed copy. *)
let record_execution st ~decisions ~session ~truncated =
  if truncated then st.truncated <- st.truncated + 1
  else st.executions <- st.executions + 1;
  match leaf_verdict st ~session with
  | Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation msg ->
      st.n_violations <- st.n_violations + 1;
      if List.length st.violations < st.cfg.max_violations then
        st.violations <-
          { decisions = List.rev decisions;
            history = Session.history session;
            msg }
          :: st.violations

(* DFS over decision sequences, on ONE machine/session pair: each child
   is explored by Session.mark_into → apply the decision → recurse →
   Session.rewind, so a node costs O(work in its own subtree edge)
   instead of a replay of the decision prefix.  [cur] is the running
   process (switching away from it costs budget; after a crash any
   process is free), [switches]/[crashes] are budget spent so far,
   [depth] the length of [decisions] (newest-first).  [sleep] is the
   DPOR sleep set ((pid, pending request) pairs; always [] when the
   reduction is off) and [stepped] the mask of pids that have taken a
   step anywhere on the path (only consulted by the symmetry
   reduction).  [hlen] is the parent node's history length: what the
   incremental checker session has already been fed when this node is
   entered. *)
let rec dfs st session machine inst decisions ~depth ~hlen ~sleep ~stepped
    cur switches crashes =
  if st.cfg.node_budget > 0 && st.nodes >= st.cfg.node_budget then
    raise Node_cap;
  st.nodes <- st.nodes + 1;
  bump_depth st depth;
  ignore (Config_set.add_live st.configs (Runtime.Machine.mem machine) : bool);
  let red = st.cfg.reduction in
  let sym_active =
    match red with
    | `Dpor_sym | `Dpor_sym_memo -> inst.Obj_inst.id_symmetric
    | `None | `Dpor -> false
  in
  let key =
    if st.cfg.prune then
      Some
        (if st.sym_memo && crashes = 0 then
           canon_key st session machine ~depth ~cur ~switches ~crashes ~sleep
             ~stepped
         else begin
           let m = Runtime.Machine.mem machine in
           let c = match cur with None -> -1 | Some pid -> pid in
           mk_key ~fa:(Mem.live_full_a m) ~fb:(Mem.live_full_b m)
             ~dg:(Session.state_digest session) ~c ~switches ~crashes
             ~smask:(sleep_mask sleep)
             ~stepped:(if sym_active then stepped else 0)
         end)
    else None
  in
  let mslot =
    match key with Some k -> Memo_tbl.find st.visited k | None -> -1
  in
  if mslot >= 0 then begin
    let v = st.visited in
    st.dedup_hits <- st.dedup_hits + 1;
    st.nodes_saved <- st.nodes_saved + Memo_tbl.nodes_at v mslot;
    st.executions <- st.executions + Memo_tbl.execs_at v mslot;
    st.truncated <- st.truncated + Memo_tbl.trunc_at v mslot;
    st.n_violations <- st.n_violations + Memo_tbl.viols_at v mslot
  end
  else begin
      let nodes0 = st.nodes
      and saved0 = st.nodes_saved
      and execs0 = st.executions
      and trunc0 = st.truncated
      and viols0 = st.n_violations in
      let here = Session.event_count session in
      let lm = lin_enter st ~session ~hlen in
      let rbuf = get_rbuf st depth in
      let n_run = Session.runnable_into session rbuf in
      if n_run = 0 then
        record_execution st ~decisions ~session ~truncated:false
      else if Session.steps session >= st.cfg.max_steps then
        record_execution st ~decisions ~session ~truncated:true
      else begin
        (* crash move: dependent with everything, so it is never slept
           and its child starts with an empty sleep set *)
        if crashes < st.cfg.crash_budget then begin
          let mk = get_mark st session depth in
          Session.mark_into session mk;
          Session.crash session st.cfg.wipe;
          dfs st session machine inst (Crash :: decisions)
            ~depth:(depth + 1) ~hlen:here ~sleep:[] ~stepped None switches
            (crashes + 1);
          Session.rewind session mk
        end;
        (* step moves *)
        let sleep = ref sleep in
        let explored = ref 0 (* pid mask; reduction is off past 62 procs *) in
        let source_ok =
          source_eligible ~reduction:red ~crash_budget:st.cfg.crash_budget ~cur
            ~crashes session
        in
        let source_stop = ref false in
        for ri = 0 to n_run - 1 do
          let pid = rbuf.(ri) in
          (* only a preemption costs budget: switching away from a process
             that finished (or crashed) is free *)
          let cost =
            match cur with
            | None -> 0
            | Some c -> if c = pid || not (buf_mem rbuf n_run c) then 0 else 1
          in
          if !source_stop then begin
            if switches + cost <= st.cfg.switch_budget then
              st.source_skips <- st.source_skips + 1
          end
          else if switches + cost <= st.cfg.switch_budget then begin
            if red <> `None && List.mem_assoc pid !sleep then
              st.sleep_skips <- st.sleep_skips + 1
            else if
              sym_active
              && stepped land (1 lsl pid) = 0
              && (let rec any q =
                    q < n_run
                    && ((let j = rbuf.(q) in
                         j < pid
                         && stepped land (1 lsl j) = 0
                         && st.wl_class.(j) = st.wl_class.(pid)
                         && !explored land (1 lsl j) <> 0
                         && Sym.swap_invariant ~n:st.n_procs
                              (Runtime.Machine.mem machine) pid j)
                       || any (q + 1))
                  in
                  any 0)
            then st.sym_skips <- st.sym_skips + 1
            else begin
              let req =
                if red <> `None then Session.pending_request session pid
                else None
              in
              let child_sleep =
                match req with
                | Some r -> List.filter (fun (_, r') -> independent r r') !sleep
                | None -> []
              in
              let mk = get_mark st session depth in
              Session.mark_into session mk;
              Session.step session pid;
              let silent = Session.event_count session = here in
              dfs st session machine inst (Step pid :: decisions)
                ~depth:(depth + 1) ~hlen:here ~sleep:child_sleep
                ~stepped:(stepped lor (1 lsl pid))
                (Some pid) (switches + cost) crashes;
              Session.rewind session mk;
              explored := !explored lor (1 lsl pid);
              (* source set: the running process's local silent step is a
                 sufficient singleton — siblings are covered by the child
                 subtree (see the source-set comment above) *)
              if source_ok && cur = Some pid && silent then source_stop := true;
              (match req with
              | Some r when silent && sleepable r ->
                  sleep := (pid, r) :: !sleep
              | _ -> ())
            end
          end
        done
      end;
      lin_leave st lm;
      match key with
      | Some k ->
          Memo_tbl.set st.visited k
            ~nodes:(st.nodes - nodes0 + (st.nodes_saved - saved0))
            ~execs:(st.executions - execs0)
            ~trunc:(st.truncated - trunc0)
            ~viols:(st.n_violations - viols0)
      | None -> ()
  end

let finish ~t0 ~alloc st =
  let nodes = st.nodes
  and lin_pushed = st.lin_pushed
  and lin_total = st.lin_total
  and lin_elapsed = st.lin_elapsed in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  (* (bucket, count) ascending assoc; zero buckets are skipped *)
  let sorted_hist (h : int array) =
    let acc = ref [] in
    for i = Array.length h - 1 downto 0 do
      if h.(i) <> 0 then acc := (i, h.(i)) :: !acc
    done;
    !acc
  in
  {
    executions = st.executions;
    truncated = st.truncated;
    nodes;
    violations = List.rev st.violations;
    total_violations = st.n_violations;
    distinct_shared_configs = Config_set.cardinal st.configs;
    capped = st.capped;
    metrics =
      {
        dedup_hits = st.dedup_hits;
        nodes_saved = st.nodes_saved;
        peak_visited = Memo_tbl.length st.visited;
        fingerprint_collisions = Config_set.collisions st.configs;
        elapsed_s;
        nodes_per_sec = float_of_int nodes /. Float.max elapsed_s 1e-9;
        depth_hist = sorted_hist st.depth_hist;
        rewound_cells = st.rewound;
        intern_hit_rate = st.intern_hit_rate;
        leaf_checks = st.leaf_checks;
        lin_elapsed_s = lin_elapsed;
        lin_checks_per_sec =
          float_of_int st.leaf_checks /. Float.max lin_elapsed 1e-9;
        lin_events_pushed = lin_pushed;
        lin_events_total = lin_total;
        lin_reuse_rate =
          (if lin_total = 0 then 0.
           else 1. -. (float_of_int lin_pushed /. float_of_int lin_total));
        frontier_hist = sorted_hist st.frontier_hist;
        reduction = reduction_name st.cfg.reduction;
        sleep_skips = st.sleep_skips;
        sym_skips = st.sym_skips;
        source_skips = st.source_skips;
        canonical_orbits =
          (match Config_set.canonical st.configs with
          | Some _ -> Config_set.orbits st.configs
          | None -> 0);
        minor_words = alloc.Dtc_util.Alloc_stats.d_minor_words;
        promoted_words = alloc.Dtc_util.Alloc_stats.d_promoted_words;
        minor_collections = alloc.Dtc_util.Alloc_stats.d_minor_collections;
        bytes_per_node = Dtc_util.Alloc_stats.bytes_per alloc nodes;
      };
  }

let explore ~mk ~workloads (cfg : config) =
  let t0 = Unix.gettimeofday () in
  (* the pid masks in the memo key are single-word bitsets *)
  let cfg =
    if Array.length workloads > 62 then { cfg with reduction = `None } else cfg
  in
  (* sym-memo eligibility: all the gates the canonical key's soundness
     argument needs.  id-symmetric layout (π-images of reachable states
     are reachable), uniform non-empty workloads (π-images run the same
     program, and process ranks are well-defined), N ≤ 20 (orbit
     weights are exact in 63-bit ints), and pruning on (the canonical
     key IS the memo key).  When any gate fails the mode degrades to
     exactly [`Dpor_sym] semantics: symmetric-sibling skipping still
     runs, keys stay raw. *)
  let sym_memo =
    match cfg.reduction with
    | `Dpor_sym_memo ->
        let n = Array.length workloads in
        cfg.prune && n > 0 && n <= 20
        && workloads.(0) <> []
        && Array.for_all (fun w -> w = workloads.(0)) workloads
        &&
        let _, inst = mk () in
        inst.Obj_inst.id_symmetric
    | `None | `Dpor | `Dpor_sym -> false
  in
  (* allocation and [Value.hc_of] traffic are the process's counter
     deltas around the whole search *)
  let st, alloc =
    Dtc_util.Alloc_stats.measure (fun () ->
        let c0, f0 = Value.hc_stats () in
        let machine, inst = mk () in
        let session =
          Session.create ~policy:cfg.policy ~undo:true machine inst ~workloads
        in
        let st = mk_state ~sym_memo cfg workloads inst.Obj_inst.spec in
        (try
           dfs st session machine inst [] ~depth:0 ~hlen:0 ~sleep:[]
             ~stepped:0 None 0 0
         with Node_cap -> st.capped <- true);
        st.rewound <- Mem.rewound_cells (Runtime.Machine.mem machine);
        let c1, f1 = Value.hc_stats () in
        let consts = c1 - c0 and total = c1 - c0 + (f1 - f0) in
        st.intern_hit_rate <-
          (if total = 0 then 0. else float_of_int consts /. float_of_int total);
        st)
  in
  finish ~t0 ~alloc st
