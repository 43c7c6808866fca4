open History
open Nvm

(** Step-level execution sessions.

    A session owns the fibers of all processes running a workload against
    one object instance, and exposes the two moves of the paper's
    adversary: advance one process by one primitive step, or crash the
    whole system.  {!Driver.run} is a policy loop over a session; the
    exhaustive model checker and the Theorem 2 adversary drive sessions
    directly to control interleavings and crash points exactly. *)

type policy = Retry | Give_up

val policy_name : policy -> string
(** ["retry"] or ["giveup"]: the spelling of the CLI's [--policy], the
    torture report and the checkpoint header. *)

type t

type scratch
(** Reusable session scratch: the two reporting hash tables
    ([op_steps]/[rec_steps]), pre-sized once and [Hashtbl.reset] between
    trials.  [Torture.run] and each campaign worker make one and thread
    it through every trial's session, so per-trial table allocation
    disappears.  A scratch must not be shared by two live sessions. *)

val make_scratch : unit -> scratch

val create :
  ?policy:policy ->
  ?undo:bool ->
  ?scratch:scratch ->
  Runtime.Machine.t ->
  Obj_inst.t ->
  workloads:Spec.op list array ->
  t
(** Start a session: every process's fiber is launched up to its first
    primitive step (invocation events for first operations are emitted).
    Default policy: [Retry].

    [~undo:true] puts the session in {e undo mode}: the machine's write
    journal is enabled and every external input a process program
    consumes (step responses, uid draws, pending queries) is logged, so
    the whole configuration can be checkpointed with {!mark} and rolled
    back with {!rewind} in O(work-since-mark) instead of replaying the
    decision prefix from the root.  Outside undo mode the session
    behaves exactly as before, with zero bookkeeping overhead. *)

val runnable : t -> int list
(** Pids with a pending primitive step, ascending.  Empty iff the run is
    over. *)

val runnable_into : t -> int array -> int
(** [runnable_into s buf] writes the runnable pids (ascending, same set
    as {!runnable}) into [buf] and returns how many there are —
    allocation-free, for callers that scan the runnable set once per
    node/step.  Raises [Invalid_argument] if [buf] is shorter than the
    process count. *)

val finished : t -> bool
(** No process is runnable; a test hook. *)

val step : t -> int -> unit
(** [step s pid] executes [pid]'s pending primitive step.  Raises
    [Invalid_argument] if [pid] is not runnable. *)

val pending_request : t -> int -> Runtime.Prim.request option
(** [pending_request s pid] peeks at the primitive request [pid]'s fiber
    is suspended on — the step that [step s pid] would execute — without
    executing anything.  [None] if the process is not runnable.  In undo
    mode this may rebuild a stale fiber (ghost replay), which is a
    session-side cache effect only: memory, histories and digests are
    untouched.  The model checker's DPOR uses the request's cell
    footprint to decide independence between candidate steps. *)

val crash : t -> Nvm.Fault_model.wipe -> unit
(** System-wide crash: kill all fibers (volatile state lost), apply the
    memory model's write-back semantics with the wipe
    ({!Runtime.Machine.crash}), then restart every process on its
    recovery-then-resume program.  The crash index passed to the
    machine is the session's crash counter before the increment, and
    {!rewind} restores that counter — so a crash re-executed after a
    rewind replays the identical wipe. *)

val steps : t -> int
(** Primitive steps executed so far. *)

val crashes : t -> int

val max_cur_steps : t -> int
(** The largest per-process step count since that process last started
    an operation or a recovery.  A wait-free detectable object keeps
    this bounded; a runaway (spinning) operation or recovery makes it
    grow without bound, which the driver's watchdog turns into a
    budget-exhausted verdict instead of a hang. *)

val history : t -> Event.t list
(** Events so far, in real-time order.  O(n) — it reverses the internal
    spine; incremental consumers should use {!events_rev} +
    {!event_count} to take only the suffix they have not seen. *)

val events_rev : t -> Event.t list
(** The raw internal event spine, {e newest first}.  O(1); the spine is
    an immutable cons list, so holding on to it is safe across
    {!mark}/{!rewind}.  The first [event_count s - k] elements are
    exactly the events emitted after the history had [k] events. *)

val event_count : t -> int
(** Events emitted so far (O(1); rewinds restore it). *)

val anomalies : t -> string list

val op_steps : t -> (string * int) list
(** Per operation name, max own-steps of a single crash-free stretch. *)

val rec_steps : t -> (string * int) list

(** {1 Undo-mode checkpointing}

    Available only on sessions created with [~undo:true].  A mark is
    O(N) (machine mark — journal position plus dirty set — and per
    process the driver fields and log positions; the event/anomaly
    lists are immutable cons spines, so their heads are snapshots
    already).  {!rewind} restores memory in O(cells-written-since-mark)
    and kills only the fibers that actually moved past the mark; a
    killed fiber is rebuilt lazily, the next time its process is
    stepped, by {e ghost replay} — re-running its deterministic program
    against the logged inputs with all session side effects suppressed,
    at a cost of O(that process's own steps) and no memory traffic.

    Marks are mutable and caller-owned: a DFS that pools one mark per
    recursion depth refills it with {!mark_into}, so checkpointing a
    node allocates nothing (the shared-cache dirty-set list is the one
    exception — it is [[]] in the private-cache model).

    Marks are LIFO: rewinding to a mark invalidates every mark taken
    (or refilled) after it.  The [op_steps]/[rec_steps] max-tables are
    deliberately not rewound — they are reporting-only monotone maxima
    over everything actually executed, and the checker's verdicts,
    digests and histories never read them. *)

type mark

val mark : t -> mark
(** A fresh mark of the full configuration: [mark_into] on a new mark.
    Raises [Invalid_argument] outside undo mode. *)

val mark_into : t -> mark -> unit
(** Overwrite a mark with the full configuration.  Raises
    [Invalid_argument] outside undo mode or on a mark taken from a
    session with a different process count. *)

val rewind : t -> mark -> unit
(** Roll the configuration back to [mark].  Raises [Invalid_argument]
    outside undo mode; marks must be used in LIFO order. *)

(** {1 Symmetry-canonical digest ingredients}

    Support for the model checker's [`Dpor_sym_memo] reduction, which
    keys its memo table on a digest constant on process-permutation
    orbits.  The session maintains, incrementally and O(1) per event, a
    {e relabeled} digest of the post-creation event stream: process ids
    are replaced by their post-creation first-occurrence rank, a
    labelling that two executions related by a pid permutation assign
    identically position by position.  Creation-drawn uids relabel
    through the same ranks; later uids are drawn in event order and so
    are already position-invariant.  {!mark}/{!rewind} checkpoint and
    restore all of it. *)

val uids : t -> int
(** Operation uids drawn so far (O(1); rewinds restore it). *)

val sym_events_sig : t -> int
(** The rolling relabeled digest of post-creation events.  The creation
    prefix is excluded: it is bytewise identical across every
    configuration one exploration compares. *)

val sym_rank : t -> int -> int
(** [sym_rank s pid] — [pid]'s post-creation first-occurrence rank, or
    [-1] if it has emitted no post-creation event yet. *)

val mut_stamp : t -> int -> int
(** [mut_stamp s pid] — [pid]'s mutation stamp.  Stamps are drawn from a
    strictly increasing per-session counter that is {e never} rewound:
    a process's stamp is refreshed whenever its logical state can have
    changed (its own step, any crash) and restored exactly by
    {!rewind}, so within one session two observations of an equal
    stamp for [pid] guarantee [pid]'s state (everything {!proc_sym_sig}
    digests, log contents included) is identical.  Distinct sessions
    share no counter.  The explorer keys its digest slots on it. *)

type sig_cursor
(** Where a {!proc_sym_sig} walk stopped: the incarnation list it
    folded, its position in the current incarnation's log, the fold so
    far and the digest ({!sig_digest}).  Immutable. *)

val sig_start : sig_cursor
(** The reset cursor: resuming from it is the full walk. *)

val sig_digest : sig_cursor -> int

val proc_sym_sig :
  t -> int -> sig_cursor ->
  hash_value:(Value.t -> int) -> hash_uid:(int -> int) -> sig_cursor
(** [proc_sym_sig s pid cur ~hash_value ~hash_uid] — relabelable digest
    of one process's future-relevant state: its incarnation boundaries,
    logged external inputs (step responses, uid draws, pending queries —
    the ghost-replay stream, which pins the fiber continuation exactly),
    driver status, remaining workload and step counter, with response
    values hashed through [hash_value] and uids through [hash_uid].
    Folded in a canonical process order, with the hashes relabeling by
    that order, these give a digest constant on permutation orbits.
    Undo mode only.

    It resumes from [cur], folding only the entries logged since, when
    [cur] was cut for the physically same incarnation list at a log
    position no later than the current one; otherwise it walks every
    log in full.  Sound only for a [cur] returned for [pid], with the
    same hashes, at this state or an ancestor (whose {!mark} is live):
    a sibling branch's cursor can pass that check with stale entries. *)

val state_digest : t -> int
(** O(N) rolling digest of everything about the session that can affect
    its future behavior {e other than} memory contents: each process's
    full request/response interaction history (which, programs being
    deterministic, pins down its fiber continuation exactly), driver
    status, remaining workload, the real-time event order so far, and
    the step/crash/uid counters.  The model checker combines this with
    {!Nvm.Mem.live_full_a}/{!Nvm.Mem.live_full_b} to key its visited set: two
    configurations with equal digests and equal memory behave
    identically under every future decision sequence (up to 63-bit hash
    collisions). *)
