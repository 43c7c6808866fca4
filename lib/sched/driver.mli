open History

(** The execution driver: runs workloads against an object instance under
    a schedule and a crash plan, producing a checkable history.

    The driver is a policy loop over {!Session}: before each step it
    consults the crash plan, then asks the schedule which runnable process
    moves.  The resulting event list is exactly what {!Lin_check.check}
    consumes, so a full run-and-check round trip is two calls.  See
    {!Session} for the caller/recovery protocol semantics.

    This module owns the two halves of the act every engine repeats:
    {!run_session} is the one loop that free-runs a session to
    completion (torture trials, crash sweeps and, through {!replay},
    shrink replays and directed scripts all end in it), and
    {!anomaly_verdict} is the one statement of the verdict rule: an
    anomaly the driver saw is a violation before any checker runs. *)

type config = {
  schedule : Schedule.t;
  crash_plan : Crash_plan.t;
  policy : Session.policy;
  max_steps : int;  (** hard step budget; exceeding it flags [incomplete] *)
}

val default_config : config
(** Round-robin, no crashes, [Retry], 100_000 steps. *)

val seeded_config :
  ?policy:Session.policy ->
  ?fault:Nvm.Fault_model.t ->
  max_steps:int ->
  max_crashes:int ->
  crash_prob:float ->
  Dtc_util.Prng.t ->
  config
(** The one seeding rule of a random run: split the schedule's stream
    from [prng] first ({!Schedule.random}), then the crash plan's
    ({!Crash_plan.faulted} [?fault] with at most [max_crashes] crashes,
    each step crashing with probability [crash_prob]).  Both splits are
    [let]-bound, so the order is this statement's, not the compiler's
    choice of record-field evaluation order.  [policy] defaults to
    [Retry].  Every seeded random run (torture trials, experiments,
    bench and tests) builds its config here; [tools/check_seeding.sh]
    rejects a {!Crash_plan.faulted} that splits its stream inline
    anywhere else. *)

type result = {
  history : Event.t list;
  steps : int;  (** primitive steps executed *)
  crashes : int;
  op_steps : (string * int) list;
      (** per operation name, the max primitive steps any single
          (crash-free stretch of an) invocation took — the empirical
          wait-freedom measure *)
  rec_steps : (string * int) list;  (** same for recovery functions *)
  anomalies : string list;
      (** driver-detected protocol violations (e.g. recovery of an
          already-completed operation disagreeing with its persisted
          response); empty for a correct implementation *)
  incomplete : bool;  (** step budget exhausted before all workloads done *)
  budget_exhausted : bool;
      (** the per-operation watchdog tripped: some single operation or
          recovery ran longer than the [watchdog] bound — a runaway
          trial, not merely a short global budget.  Implies
          [incomplete]. *)
}

val run_session :
  ?watchdog:int ->
  Session.t ->
  schedule:Schedule.t ->
  crash_plan:Crash_plan.t ->
  max_steps:int ->
  result
(** Run an existing session until no process is runnable or the
    session's global step count reaches [max_steps] ([incomplete]).
    Before each step the crash plan may crash the system instead; else
    the schedule picks the process.  The policy is the session's own.
    [watchdog] bounds the steps any single operation/recovery may take
    ({!Session.max_cur_steps}); exceeding it stops the run with
    [budget_exhausted] set instead of spinning until [max_steps].  A
    session already advanced by hand continues from where it stands. *)

val apply : wipe:Nvm.Fault_model.wipe -> Session.t -> Decision.t -> unit
(** Apply one decision: [Crash] crashes under [wipe]; [Step pid] steps
    [pid] if it is runnable and is otherwise skipped, so replay is {e
    tolerant} of an earlier decision having been deleted. *)

val replay :
  ?wipe:Nvm.Fault_model.wipe -> max_steps:int -> Session.t ->
  Decision.t list -> result
(** "Prefix, then free run": {!apply} each decision ([wipe] defaults to
    {!Nvm.Fault_model.keep_all}), then {!run_session} lowest runnable
    pid first.  The decisions of a run that finished (an explorer
    violation, a torture trace under its trial's wipe) replay to that
    run. *)

val run :
  ?watchdog:int ->
  ?scratch:Session.scratch ->
  Runtime.Machine.t ->
  Obj_inst.t ->
  workloads:Spec.op list array ->
  config ->
  result
(** [run machine inst ~workloads config] — [workloads.(p)] is the sequence
    of abstract operations process [p] performs: {!Session.create} under
    [config.policy], then {!run_session}.  The machine must be the one
    the instance allocated its locations in.  [scratch] lets a trial
    loop reuse one {!Session.scratch} across many runs on the same
    domain (see {!Session.create}). *)

val anomaly_verdict : string list -> Lin_check.verdict option
(** The verdict rule's first half: given a run's driver anomalies, the
    violation they make ([Some], from the first anomaly), or [None] when
    there are none and the caller's checker decides.  Allocates nothing
    on a clean run, so the explorer calls it at every leaf. *)

val check :
  ?lin_engine:Lin_check.engine -> Obj_inst.t -> result -> Lin_check.verdict
(** Check the run's history against the instance's specification after
    {!anomaly_verdict}.  [lin_engine] (default [`Incremental]) selects
    the checker engine; both agree on every verdict. *)

type sweep = {
  executions : int;  (** runs that finished *)
  truncated : int;  (** runs cut by [max_steps] *)
  total_violations : int;  (** runs {!check} rejects *)
}

val crash_points :
  mk:(unit -> Runtime.Machine.t * Obj_inst.t) ->
  workloads:Spec.op list array ->
  schedule:(unit -> Schedule.t) ->
  ?policy:Session.policy ->
  ?wipe:Nvm.Fault_model.wipe ->
  ?max_steps:int ->
  unit ->
  sweep
(** The exhaustive single-crash sweep: one crash-free {!run} of the
    given deterministic schedule, then one run per step [k] of it with
    {!Crash_plan.at_steps} [[k]], each judged by {!check}.  The crash
    applies [wipe] (default {!Nvm.Fault_model.keep_all}); recovery runs
    to completion under the same schedule.  The schedule factory is
    invoked once per run, so stateful schedules like round-robin start
    fresh each time.  Default policy [Retry], [max_steps] 2000.  Linear
    in the schedule length, and exactly the shape of the Figure 2
    construction; a test oracle that sweeps every crash point of small
    scripted runs. *)
