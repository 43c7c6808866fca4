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

let run ?watchdog ?scratch machine inst ~workloads cfg =
  let session = Session.create ~policy:cfg.policy ?scratch machine inst ~workloads in
  let incomplete = ref false in
  let budget_exhausted = ref false in
  let continue = ref true in
  while !continue do
    match Session.runnable session with
    | [] -> continue := false
    | runnable ->
        let step = Session.steps session in
        if step >= cfg.max_steps then begin
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
        else if cfg.crash_plan.Crash_plan.should_crash ~step then
          Session.crash session cfg.crash_plan.Crash_plan.wipe
        else
          Session.step session (cfg.schedule.Schedule.choose ~runnable ~step)
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

let check ?(lin_engine = (`Incremental : Lin_check.engine)) inst
    (result : result) =
  match result.anomalies with
  | a :: _ -> Lin_check.Violation ("driver anomaly: " ^ a)
  | [] -> Lin_check.check_with lin_engine inst.Obj_inst.spec result.history
