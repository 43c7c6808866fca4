open History
open Sched

(** The deterministic, fault-model-aware crash-torture engine.

    A torture {e campaign} runs [trials] independent seeded executions of
    one object under random schedules and random crash injection — with
    the crash's NVM write-back behaviour drawn from a configurable
    {!Nvm.Fault_model.t} — checks every history for durable
    linearizability + detectability, and merges everything into one
    structured {!report}: verdict counts, a crash-point histogram,
    recovery-verdict counts, step and [max_shared_bits] distributions,
    throughput, and — when a trial fails — the first failing trial's
    schedule, minimised with {!Sched.Shrink} under the trial's
    exact fault stream.

    {2 Determinism contract}

    Trial [i] of a campaign with root seed [r] {e always} runs on the
    child generator [Dtc_util.Prng.stream r ~index:i], computed in O(1)
    from [(r, i)] alone; the trial's fault stream is seeded from that
    same generator, and each crash's write-back keys on the crash index
    within the trial.  Every trial builds its own machine, so no state
    crosses trials whatever order they run in; the merge folds per-trial
    records in trial-index order.  Hence the merged report — every field
    except the [timing] block — is a pure function of
    [(spec, root_seed, trials)]: bit-identical for any interruption/resume
    split and for any number of worker processes and any supervision
    schedule ({!Campaign}).  {!to_json} with
    [~timing:false] renders exactly the deterministic fields, which is
    what the determinism regression tests and the bench baseline
    comparison rely on.

    {2 Containment}

    The engine survives the object under test: a raise out of object
    code becomes that trial's [engine_fault] verdict (message +
    backtrace, campaign continues), and a spinning operation or recovery
    is cut by the [watchdog] step budget into a [budget_exhausted]
    verdict.  Surviving a worker process that dies is {!Campaign}'s
    job.

    {2 Checkpointing}

    With [~checkpoint:path] the campaign journals one JSONL line per
    completed trial, flushed as it finishes (schema
    [detectable-torture-checkpoint/v2]: a header echoing the campaign
    parameters, then per-trial records, optionally interleaved with
    supervisor lifecycle event lines).  With [~resume:true] an existing
    journal's completed trials are loaded and only the missing indices
    run; the merged report is byte-identical to an uninterrupted
    campaign's.  A journal with no complete first line, or only blank
    lines, is fresh; one torn trailing line is dropped and healed.  A
    header that mismatches the parameters, does not parse, or lacks or
    mistypes a key is rejected, as are a blank first line followed by
    records, an unreadable line before the tail, an out-of-range trial
    index and two {e different} records of one trial (overlapping worker
    ranges); identical duplicates are deduplicated.  The format and
    these rules are private to this module: {!run} and {!Campaign.run}
    both go through {!run_with}, so either resumes the other's journal.

    The full JSON schemas are documented field-by-field in
    [docs/TORTURE.md]. *)

type spec = {
  label : string;  (** object / campaign name, e.g. ["dcas"] *)
  mk : unit -> Runtime.Machine.t * Obj_inst.t;
      (** fresh machine + instance per trial *)
  workloads_of_seed : int -> Spec.op list array;
      (** per-trial workload from the trial's derived seed *)
  policy : Session.policy;
  crash_prob : float;  (** per-step crash probability *)
  max_crashes : int;  (** crash budget per trial *)
  max_steps : int;  (** step budget per trial; exceeding it is [incomplete] *)
  lin_engine : Lin_check.engine;
      (** checker engine for per-trial verdicts; both engines agree on
          every verdict, so the report is identical either way *)
  fault : Nvm.Fault_model.t;
      (** what a crash does to dirty cache lines (shared-cache model);
          [Atomic] reproduces the historical engine draw-for-draw *)
  watchdog : int;
      (** per-operation step budget ({!Sched.Driver.run}'s [watchdog]):
          a single operation/recovery exceeding it turns the trial into
          a [budget_exhausted] verdict instead of spinning to
          [max_steps] *)
}

val default_spec_of :
  ?policy:Session.policy ->
  ?crash_prob:float ->
  ?max_crashes:int ->
  ?max_steps:int ->
  ?fault:Nvm.Fault_model.t ->
  ?watchdog:int ->
  label:string ->
  mk:(unit -> Runtime.Machine.t * Obj_inst.t) ->
  workloads_of_seed:(int -> Spec.op list array) ->
  unit ->
  spec
(** Spec with the E6 torture defaults: [Retry], crash probability 0.05,
    at most 2 crashes, 50_000 steps, incremental checker, [Atomic]
    fault model, watchdog 10_000.  Raises [Invalid_argument] when
    [crash_prob] is outside [\[0, 1\]] ({!Sched.Crash_plan.check_prob}),
    [max_crashes < 0] or [watchdog < 1], so no trial ever runs with
    them. *)

type dist = {
  d_min : int;
  d_max : int;
  d_mean : float;
  d_total : int;
}
(** Distribution summary of a per-trial integer measure (all zero when
    [trials = 0]). *)

type failure = {
  trial : int;  (** lowest failing trial index *)
  seed : int;  (** the trial's derived workload seed *)
  msg : string;  (** checker verdict or escaped exception message *)
  schedule : Decision.t list;
      (** the full decision trace of the failing trial, oldest first;
          {!Driver.replay} under the trial's fault stream re-runs it *)
  minimised : Decision.t list option;
      (** 1-minimal prefix from {!Sched.Shrink.minimise}, replayed
          under the trial's exact fault stream ([None] if the failure
          does not reproduce under tolerant replay, or shrinking was
          disabled) *)
  shrink_attempts : int;  (** replays the minimiser performed *)
}

type engine_fault = {
  ef_trial : int;  (** lowest engine-faulting trial index *)
  ef_seed : int;  (** that trial's derived workload seed *)
  ef_msg : string;  (** exception text, plus backtrace when recorded *)
}

type report = {
  label : string;
  root_seed : int;
  trials : int;
  policy : Session.policy;
  crash_prob : float;
  max_crashes : int;
  max_steps : int;
  fault : Nvm.Fault_model.t;
  watchdog : int;
  linearized : int;  (** trials whose history checked OK *)
  not_linearized : int;  (** trials with a checker violation or anomaly *)
  incomplete : int;  (** trials cut by the step budget (verdict OK) *)
  budget_exhausted : int;
      (** trials cut by the per-operation watchdog — a runaway
          operation/recovery, distinct from a merely short [max_steps] *)
  engine_faults : int;
      (** trials whose object code raised an exception other than the
          [Invalid_argument]/[Failure] correctness convention; contained
          per-trial, the campaign completes *)
  crashes_injected : int;  (** total crash events across all trials *)
  crash_hist : (int * int) list;
      (** crash-point histogram: [(bucket_lo, count)], ascending, bucket
          width 16; a crash at global step [s] lands in the bucket
          [s / 16 * 16] *)
  rec_returned : int;
      (** recovery verdicts "was linearized, here is the response"
          ([Event.Rec_ret]) across all trials *)
  rec_failed : int;
      (** recovery [fail] verdicts ([Event.Rec_fail]) across all trials *)
  steps : dist;  (** per-trial primitive-step counts *)
  max_shared_bits : dist;
      (** per-trial shared-NVM high-water marks ({!Nvm.Mem.max_shared_bits}) *)
  first_failure : failure option;
  first_engine_fault : engine_fault option;
  elapsed_s : float;  (** wall-clock of the trial phase (shrinking excluded) *)
  trials_per_sec : float;
  parallelism : int;
      (** the executor's parallelism: 1 for {!run}, the worker count for
          {!Campaign.run} *)
  alloc_minor_words : float;
      (** words allocated on the minor heap by {!run}'s trial loop
          ({!Dtc_util.Alloc_stats}); measured around the whole loop, so
          the per-trial machine and session construction is included,
          the merge/shrink phases are not.  Zero for {!Campaign.run},
          whose trials allocate in the workers *)
  alloc_promoted_words : float;
  alloc_minor_collections : int;
  bytes_per_trial : float;
      (** [Alloc_stats.allocated_bytes / trials executed] — trials
          preloaded from a resumed checkpoint are excluded from the
          denominator since they never ran *)
}

(** {2 Per-trial interface}

    The building blocks {!run} composes, exposed so other executors —
    the multi-process {!Campaign} supervisor and its workers — run and
    serialise trials while keeping the determinism contract. *)

type verdict =
  | V_ok
  | V_violation of string
  | V_incomplete
  | V_budget
  | V_engine_fault of string

type trial = {
  t_seed : int;  (** derived workload seed *)
  t_fault_seed : int;  (** seed of the trial's dedicated fault stream *)
  t_steps : int;
  t_crashes : int;
  t_crash_steps : int list;  (** ascending *)
  t_rec_returned : int;
  t_rec_failed : int;
  t_bits : int;
  t_verdict : verdict;
  t_trace : Decision.t list;
      (** the trial's decisions, oldest first, when [t_verdict] is not
          [V_ok]; [[]] for an ok trial, whose schedule is already a pure
          function of [(spec, root, index)] and which the merge never
          shrinks *)
}

val run_trial :
  spec -> scratch:Session.scratch -> root:int -> index:int -> trial
(** Run trial [index] of the campaign seeded by [root].  A pure function
    of [(spec, root, index)]; [scratch] is reusable across calls.  The
    decision trace is recorded while the trial runs and dropped once the
    verdict is [V_ok]. *)

val merge :
  spec -> root_seed:int -> trials:int -> shrink:bool -> trial array -> report
(** Fold the per-trial records (element [i] = trial [i]) into a report,
    shrinking the first failure when [shrink].  The timing-block fields
    ([elapsed_s], [trials_per_sec], [parallelism], [alloc_*],
    [bytes_per_trial]) are zeroed; callers that measured them
    record-update the result. *)

(** {2 Pipe protocol} *)

val trial_line : int -> trial -> string
(** One trial as a single JSON line: the record a journal stores and a
    {!Campaign} worker streams.  An ok trial's line carries
    ["trace": [  ]], so a passing trial costs the pipe, the journal and
    the supervisor a short record. *)

val trial_of_json : Tiny_json.t -> int * trial
(** Inverse of {!trial_line} ∘ [Tiny_json.parse]; raises on records that
    are not trial lines.  The trace of an ok record (which journals
    written before ok trials dropped theirs still hold) is checked, then
    dropped, as {!run_trial} drops it. *)

(** {2 Campaign driver} *)

exception Interrupted of { completed : int; total : int }
(** Raised by {!run_with} (so by {!run} and {!Campaign.run}) when
    [should_stop] turned true before every trial completed.  All
    completed trials are already journaled and an ["interrupted"] event
    line has been flushed, so a later [~resume:true] run finishes the
    campaign byte-identically. *)

type ledger = {
  missing : int array;  (** trial indices not yet held, ascending *)
  stop : unit -> bool;  (** the campaign's [should_stop] *)
  has : int -> bool;  (** whether trial [i] is held *)
  keep : int -> trial -> unit;  (** hold trial [i] for the merge *)
  journal : ?line:string -> int -> trial -> unit;
      (** append trial [i] to the journal as it finishes, flushed; a
          no-op without a checkpoint (nothing is serialised then).
          [line], when given, is [trial_line i tr] as already received
          from a worker, and is written verbatim instead of re-rendered *)
  event : string -> unit;  (** append one lifecycle event line *)
}
(** What {!run_with} hands an executor.  Not thread-safe: the executor
    calls it from the one thread that called {!run_with}. *)

val run_with :
  ?shrink:bool ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  root_seed:int ->
  trials:int ->
  spec ->
  (ledger -> int * 'a) ->
  report * 'a
(** The campaign core behind {!run} and {!Campaign.run}: check the
    arguments, preload a resumed journal, open the journal, call the
    executor, which runs every [missing] index, then either journal an
    ["interrupted"] event and raise {!Interrupted} (trials missing and
    [should_stop ()] true) or merge.  The executor returns its
    [parallelism] and whatever else it measured.
    [elapsed_s] and [trials_per_sec] time the executor alone, never the
    shrinking; the other timing fields stay zero.  Raises
    [Invalid_argument] on negative [trials], on [resume] without
    [checkpoint], and on a journal written by a different campaign or
    not readable as one (see Checkpointing above). *)

val run :
  ?root_seed:int ->
  ?trials:int ->
  ?shrink:bool ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  spec ->
  report
(** Run a campaign through {!run_with}, in this process: the missing
    trial indices run one after another, in ascending order.  For more
    than one core, run the same campaign with {!Campaign.run}'s worker
    processes; its report is byte-identical ({!to_json} [~timing:false]).
    [shrink] (default [true]) minimises the first failing trial's
    schedule after the merge.  [checkpoint] journals completed trials to
    that path as they finish; [resume] (default [false], requires
    [checkpoint]) first loads the journal's completed trials and runs
    only the missing indices — producing a report byte-identical
    ({!to_json} [~timing:false]) to an uninterrupted campaign.
    [should_stop] (default [fun () -> false]) is polled between trials
    (a flag flipped by a signal handler is the intended use); once it
    turns true the campaign stops issuing trials and raises
    {!Interrupted} after journaling what completed.
    One {!Sched.Session.scratch} serves every trial, and the report's
    [alloc_*]/[bytes_per_trial] fields meter the whole trial loop.
    Defaults: [root_seed = 1], [trials = 200]. *)

(** {2 Supervision metadata}

    Process-supervision counters rendered into the report's
    [timing.supervision] block by campaign runs ({!Campaign.run} fills
    them; plain {!run} reports, and the [~timing:false] rendering, use
    the all-zero {!no_supervision}).  They live in the timing block
    because — unlike every other report field — they depend on the
    failure schedule, not on [(spec, root_seed, trials)]. *)

type chaos = {
  kill_prob : float;  (** injected kill probability (0 = no chaos) *)
  hang_prob : float;  (** injected hang probability *)
  chaos_seed : int;  (** chaos plan seed *)
}

type supervision = {
  workers_spawned : int;  (** worker processes forked, incl. respawns *)
  worker_deaths : int;  (** workers that exited before finishing *)
  worker_hangs : int;  (** workers killed after a heartbeat timeout *)
  retries : int;  (** respawns of a previously-failed range *)
  inproc_trials : int;
      (** trials run in-process once a range's retry budget is spent *)
  chaos : chaos;  (** the chaos parameters the campaign ran under *)
}

val no_supervision : supervision

(** {2 Rendering} *)

val to_json : ?timing:bool -> ?supervision:supervision -> report -> string
(** Render the report as the [detectable-torture/v4] JSON document (v3
    plus the [timing.supervision] block).  [~timing:false] (default
    [true]) omits the [timing] block, leaving exactly the fields the
    determinism contract covers; [supervision] (default
    {!no_supervision}) fills [timing.supervision]. *)

val pp_report :
  ?timing:bool ->
  ?supervision:supervision ->
  unit ->
  Format.formatter ->
  report ->
  unit
(** Human-readable multi-line summary.  [~timing:false] omits the
    throughput/alloc/supervision lines, leaving exactly the
    deterministic fields (the text analogue of
    {!to_json}[ ~timing:false]). *)
