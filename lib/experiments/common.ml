open Nvm
open History
open Sched

let i n = Value.Int n

let torture_count ?(policy = Session.Retry) ?fault
    ?(crash_prob = 0.05) ?(max_crashes = 2) ~trials ~mk ~workloads_of_seed () =
  let violations = ref 0 in
  let crashes = ref 0 in
  for seed = 1 to trials do
    let prng = Dtc_util.Prng.create seed in
    let machine, inst = mk () in
    let cfg =
      {
        Driver.schedule = Schedule.random (Dtc_util.Prng.split prng);
        crash_plan =
          Crash_plan.faulted ~max_crashes ?fault ~prob:crash_prob
            (Dtc_util.Prng.split prng);
        policy;
        max_steps = 50_000;
      }
    in
    match Driver.run machine inst ~workloads:(workloads_of_seed seed) cfg with
    | res ->
        crashes := !crashes + res.Driver.crashes;
        let verdict = Driver.check inst res in
        if res.Driver.incomplete || not (Lin_check.is_ok verdict) then
          incr violations
    | exception (Invalid_argument _ | Failure _) ->
        (* an algorithm choked on inconsistent NVM state (possible for the
           deliberately broken / untransformed variants): that is a
           correctness violation, not a harness failure *)
        incr violations
  done;
  (!violations, !crashes)

let run_steps ~mk ~workloads ~seed =
  let prng = Dtc_util.Prng.create seed in
  let machine, inst = mk () in
  let cfg =
    {
      Driver.default_config with
      schedule = Schedule.random (Dtc_util.Prng.split prng);
      (* inject a couple of crashes so recovery step counts are populated *)
      crash_plan =
        Crash_plan.faulted ~max_crashes:2 ~prob:0.03 (Dtc_util.Prng.split prng);
      max_steps = 1_000_000;
    }
  in
  Driver.run machine inst ~workloads cfg
