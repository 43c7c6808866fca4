open History

type config = {
  schedule : Schedule.t;
  crash_plan : Crash_plan.t;
  policy : Session.policy;
  max_steps : int;
}

let default_config =
  {
    schedule = Schedule.round_robin ();
    crash_plan = Crash_plan.none;
    policy = Session.Retry;
    max_steps = 100_000;
  }

let seeded_config ?(policy = Session.Retry) ?fault ~max_steps ~max_crashes
    ~crash_prob prng =
  let schedule = Schedule.random (Dtc_util.Prng.split prng) in
  let crash_plan =
    Crash_plan.faulted ~max_crashes ?fault ~prob:crash_prob
      (Dtc_util.Prng.split prng)
  in
  { schedule; crash_plan; policy; max_steps }

type result = {
  history : Event.t list;
  steps : int;
  crashes : int;
  op_steps : (string * int) list;
  rec_steps : (string * int) list;
  anomalies : string list;
  incomplete : bool;
  budget_exhausted : bool;
}

let run_session ?watchdog session ~schedule ~crash_plan ~max_steps =
  let incomplete = ref false in
  let budget_exhausted = ref false in
  let continue = ref true in
  while !continue do
    match Session.runnable session with
    | [] -> continue := false
    | runnable ->
        let step = Session.steps session in
        if step >= max_steps then begin
          incomplete := true;
          continue := false
        end
        else if
          match watchdog with
          | Some w -> Session.max_cur_steps session > w
          | None -> false
        then begin
          (* some operation or recovery has run for more steps than any
             wait-free implementation could need: a runaway trial, not a
             slow one *)
          budget_exhausted := true;
          incomplete := true;
          continue := false
        end
        else if crash_plan.Crash_plan.should_crash ~step then
          Session.crash session crash_plan.Crash_plan.wipe
        else Session.step session (schedule.Schedule.choose ~runnable ~step)
  done;
  {
    history = Session.history session;
    steps = Session.steps session;
    crashes = Session.crashes session;
    op_steps = Session.op_steps session;
    rec_steps = Session.rec_steps session;
    anomalies = Session.anomalies session;
    incomplete = !incomplete;
    budget_exhausted = !budget_exhausted;
  }

let apply ~wipe session = function
  | Decision.Crash -> Session.crash session wipe
  | Decision.Step pid ->
      if List.mem pid (Session.runnable session) then Session.step session pid

let replay ?(wipe = Nvm.Fault_model.keep_all) ~max_steps session decisions =
  List.iter (apply ~wipe session) decisions;
  run_session session ~schedule:(Schedule.scripted [])
    ~crash_plan:Crash_plan.none ~max_steps

let run ?watchdog ?scratch machine inst ~workloads cfg =
  run_session ?watchdog
    (Session.create ~policy:cfg.policy ?scratch machine inst ~workloads)
    ~schedule:cfg.schedule ~crash_plan:cfg.crash_plan ~max_steps:cfg.max_steps

let anomaly_verdict = function
  | a :: _ -> Some (Lin_check.Violation ("driver anomaly: " ^ a))
  | [] -> None

let check ?(lin_engine = (`Incremental : Lin_check.engine)) inst
    (result : result) =
  match anomaly_verdict result.anomalies with
  | Some v -> v
  | None -> Lin_check.check_with lin_engine inst.Obj_inst.spec result.history

type sweep = { executions : int; truncated : int; total_violations : int }

let crash_points ~mk ~workloads ~schedule ?(policy = Session.Retry)
    ?(wipe = Nvm.Fault_model.keep_all) ?(max_steps = 2_000) () =
  let executions = ref 0 and truncated = ref 0 and violations = ref 0 in
  let run_with crash_plan =
    let machine, inst = mk () in
    let r =
      run machine inst ~workloads
        { schedule = schedule (); crash_plan; policy; max_steps }
    in
    incr (if r.incomplete then truncated else executions);
    (match check inst r with
    | Lin_check.Violation _ -> incr violations
    | Lin_check.Ok_linearizable _ -> ());
    r.steps
  in
  (* the crash-free run also learns how many steps there are to crash at *)
  let total = run_with Crash_plan.none in
  for k = 0 to total - 1 do
    ignore (run_with { (Crash_plan.at_steps [ k ]) with wipe } : int)
  done;
  {
    executions = !executions;
    truncated = !truncated;
    total_violations = !violations;
  }
