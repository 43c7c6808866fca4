(** Multi-process torture campaign supervisor.

    {!Torture.run} runs a campaign's trials one after another inside one
    process; this module runs the same deterministic trial streams side
    by side in OS {e processes}, and is the only parallel executor.  Both
    are executors for one campaign core, {!Torture.run_with}.  A supervisor forks workers (normally
    [detect_cli torture-worker]), hands each a contiguous
    [(root_seed, lo, hi)] slice, and reads per-trial JSONL records plus
    periodic heartbeats from each worker's pipe.

    {2 Supervision semantics}

    - {b Death}: a worker whose pipe reaches EOF before its range is
      complete (detected and reaped with [waitpid]) has its {e remaining}
      range reassigned — completed trials were already streamed, so
      nothing reruns.
    - {b Hang}: a worker that emits nothing (trials or heartbeats) for
      [heartbeat_timeout] seconds is SIGKILLed, drained, and treated as
      a death.
    - {b One failure rule}: the unfinished remainder of a dead or hung
      worker's range is respawned at once, up to [retry_budget] times;
      after that it runs {e in-process} via {!Torture.run_trial} —
      chaos-free by construction — which alone guarantees that a
      campaign terminates with a verdict.

    Because trial [i] is a pure function of [(spec, root_seed, i)], the
    merged report's deterministic fields are byte-identical to
    {!Torture.run}'s whatever the failure schedule; only the {!counters}
    (rendered in the report's timing block) reflect what the supervisor
    had to do.

    {2 Chaos}

    [chaos] injects deterministic worker faults for testing the
    supervisor itself: the spawn of the range that starts at trial [lo],
    at attempt [a] (1 for its first spawn), draws from
    [Prng.stream (Prng.stream_seed chaos_seed ~index:lo) ~index:a], and
    with probability [kill_prob] the worker self-kills (exit 70) after a
    seeded number of trials, or with probability [hang_prob] stops
    emitting instead.  A respawned remainder starts where its worker
    stopped, which the drawn fault itself fixes, so the fault schedule
    (and with it the counters) does not depend on the order in which
    the supervisor reaps workers.  The final report must be
    byte-identical to an undisturbed run — that assertion is the chaos
    harness's whole point.

    {2 Checkpointing}

    This module runs inside {!Torture.run_with}, which owns the
    checkpoint journal, resume, the interrupt and the merge, exactly as
    for {!Torture.run}; either engine resumes the other's journal.  The
    supervisor adds its lifecycle events (spawn / exit / death / hang /
    inproc) to the journal between the trial lines. *)

type fault_plan =
  | No_fault
  | Kill_after of int  (** self-kill (exit 70) after this many trials *)
  | Hang_after of int  (** stop emitting after this many trials *)

type chaos = Torture.chaos = {
  kill_prob : float;
  hang_prob : float;
  chaos_seed : int;
}

val no_chaos : chaos

val chaos_of_string : string -> (chaos, string) result
(** Parse ["kill=P,hang=Q,seed=S"] (fields optional, any order).
    Probabilities must lie in [[0, 1]] with [kill + hang <= 1]. *)

val chaos_to_string : chaos -> string

type config = {
  workers : int;  (** process parallelism (>= 1) *)
  heartbeat_every : int;
      (** worker heartbeat period, in trials (>= 0; 0 = only the first) *)
  heartbeat_timeout : float;
      (** seconds of silence before a SIGKILL (finite, > 0) *)
  retry_budget : int;
      (** respawns of a failed range before it runs in-process (>= 0) *)
  chaos : chaos;
  chaos_plan : (lo:int -> attempt:int -> range_len:int -> fault_plan) option;
      (** test hook: overrides the [chaos] draw when set; called once per
          spawn with the range's first trial index, its attempt number
          (1 for the first spawn) and its length *)
}

val default_config : config
(** 4 workers, heartbeat every 16 trials / 30 s timeout, retry budget 3,
    no chaos. *)

type counters = Torture.supervision = {
  workers_spawned : int;
  worker_deaths : int;
  worker_hangs : int;
  retries : int;
  inproc_trials : int;
  chaos : chaos;
}
(** What the supervisor had to do, plus the chaos it ran under: the
    report's [timing.supervision] block ({!Torture.to_json}
    [~supervision]). *)

val worker_main :
  ?fault:fault_plan ->
  ?out:out_channel ->
  heartbeat_every:int ->
  root_seed:int ->
  lo:int ->
  hi:int ->
  Torture.spec ->
  unit
(** The worker half of the protocol (what [detect_cli torture-worker]
    runs): execute trials [lo .. hi-1] of the campaign, streaming to
    [out] (default [stdout]) one {!Torture.trial_line} per trial in
    index order, a [{"event":"heartbeat","done":n}] line immediately on
    start and then every [heartbeat_every] trials, and a
    [{"event":"done","lo":..,"hi":..}] line on completion.  [fault]
    injects the chaos behaviours above (testing only). *)

val run :
  ?checkpoint:string ->
  ?resume:bool ->
  ?shrink:bool ->
  ?should_stop:(unit -> bool) ->
  ?config:config ->
  worker_argv:(lo:int -> hi:int -> fault:fault_plan -> string array) ->
  root_seed:int ->
  trials:int ->
  Torture.spec ->
  Torture.report * counters
(** Supervise a campaign inside {!Torture.run_with}: split the missing
    trial indices into contiguous ranges (one per worker), spawn
    [worker_argv ~lo ~hi ~fault] for each ([argv.(0)] is the executable
    path; [fault] is the chaos plan drawn for that spawn — encode it
    into the child's command line), and record each streamed trial.
    The report's deterministic fields are byte-identical to a
    single-process run's; its [parallelism] is [config.workers].
    [should_stop] is polled in the event loop; when it turns true the
    supervisor kills its workers and {!Torture.run_with} journals the
    interrupt and raises {!Torture.Interrupted}.  Raises
    [Invalid_argument], before anything is spawned, when
    [config.workers < 1], when [config.heartbeat_timeout] is not a
    finite number [> 0], when [config.retry_budget < 0] or
    [config.heartbeat_every < 0], and wherever
    {!Torture.run_with} does. *)
