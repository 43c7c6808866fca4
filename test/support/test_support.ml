(* Shared helpers for the test suites. *)

open Nvm
open History
open Sched

let value_testable : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal

let i n = Value.Int n

(* ---------------------------------------------------------------- *)
(* Instance factories: every object under test, built on a fresh
   machine.  [mk_*] return (machine, instance) as the model checker
   expects. *)

let mk name ?persist ?model ?capacity ?(n = 3) () =
  Objects.mk ?persist ?model ?capacity (Objects.find name) ~n ()

let mk_drw = mk "drw"
let mk_dcas = mk "dcas"
let mk_dmax = mk "dmax"
let mk_dcounter = mk "dcounter"
let mk_dfaa = mk "dfaa"
let mk_urw = mk "urw"
let mk_ucas = mk "ucas"

let mk_dqueue ?persist ?model ?(capacity = 32) ?n () =
  mk "dqueue" ?persist ?model ~capacity ?n ()

(* ---------------------------------------------------------------- *)
(* Torture runner: many seeded random runs with crashes; fails the test
   with a pretty-printed history on the first violation. *)

let run_one ?(policy = Session.Retry) ?(max_crashes = 2) ?(crash_prob = 0.05)
    ?fault ?(max_steps = 20_000) ~seed mk workloads =
  let prng = Dtc_util.Prng.create seed in
  let machine, inst = mk () in
  let cfg =
    {
      Driver.schedule = Schedule.random (Dtc_util.Prng.split prng);
      crash_plan =
        Crash_plan.faulted ~max_crashes ?fault ~prob:crash_prob
          (Dtc_util.Prng.split prng);
      policy;
      max_steps;
    }
  in
  let res = Driver.run machine inst ~workloads cfg in
  (inst, res)

let assert_ok inst (res : Driver.result) ~ctx =
  if res.incomplete then
    Alcotest.failf "%s: run incomplete (step budget exhausted)" ctx;
  match Driver.check inst res with
  | Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation msg ->
      Alcotest.failf "%s: %s@.history:@.%a" ctx msg Event.pp_history
        res.history

let torture ?policy ?max_crashes ?crash_prob ?fault ?max_steps ~trials
    ~name mk workloads_of_seed =
  for seed = 1 to trials do
    let workloads = workloads_of_seed seed in
    let inst, res =
      run_one ?policy ?max_crashes ?crash_prob ?fault ?max_steps ~seed mk
        workloads
    in
    assert_ok inst res ~ctx:(Printf.sprintf "%s (seed %d)" name seed)
  done

(* Crash-free sequential run of one process; returns the responses. *)
let solo_run mk ops =
  let machine, inst = mk () in
  let cfg = Driver.default_config in
  let res = Driver.run machine inst ~workloads:[| ops |] cfg in
  ( inst,
    res,
    List.filter_map
      (function Event.Ret { v; _ } -> Some v | _ -> None)
      res.history )

(* Count outcome events per uid; used to assert verdict stability. *)
let outcomes_per_uid history =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match (e : Event.t) with
      | Event.Ret { uid; _ } | Event.Rec_ret { uid; _ } | Event.Rec_fail { uid; _ }
        ->
          Hashtbl.replace tbl uid (1 + Option.value ~default:0 (Hashtbl.find_opt tbl uid))
      | Event.Inv _ | Event.Crash -> ())
    history;
  tbl

(* QCheck→Alcotest bridging is provided by qcheck-alcotest in the test
   executables; here we only centralise a default count. *)
let qcheck_count = 200
