(* Tests for the NRL wrapper: recovery must complete the operation and
   never answer fail. *)

open History
open Nvm
open Sched

let i n = Value.Int n

let mk_nrl_dcas ?(n = 3) () =
  let m = Runtime.Machine.create () in
  ( m,
    Detectable.Nrl.wrap
      (Detectable.Dcas.instance (Detectable.Dcas.create m ~n ~init:(i 0))) )

let mk_nrl_drw ?(n = 3) () =
  let m = Runtime.Machine.create () in
  ( m,
    Detectable.Nrl.wrap
      (Detectable.Drw.instance (Detectable.Drw.create m ~n ~init:(i 0))) )

(* The wrapper's contract: whenever the wrapped recovery runs, it never
   answers fail.  (Histories may still contain a [Rec_fail] for an
   operation whose announcement was cut down by a crash — there recovery
   never ran at all, because the system saw nothing pending.)  We count
   fail answers by instrumenting [recover] directly. *)
let never_fails_run ~seed ~name mk workloads =
  let fails = ref 0 in
  let mk_counted () =
    let machine, inst = mk () in
    let recover ~pid op =
      let r = inst.Sched.Obj_inst.recover ~pid op in
      if Sched.Obj_inst.is_fail r then incr fails;
      r
    in
    (machine, { inst with Sched.Obj_inst.recover })
  in
  let inst, res = Test_support.run_one ~seed mk_counted workloads in
  Test_support.assert_ok inst res ~ctx:(Printf.sprintf "%s seed %d" name seed);
  if !fails > 0 then
    Alcotest.failf "seed %d: NRL recovery answered fail@.%a" seed
      Event.pp_history res.Driver.history

let test_nrl_never_fails_drw () =
  for seed = 1 to 80 do
    let workloads =
      Workload.register (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
        ~values:2
    in
    never_fails_run ~seed ~name:"nrl drw" mk_nrl_drw workloads
  done

let test_nrl_never_fails_dcas () =
  for seed = 1 to 80 do
    let workloads =
      Workload.cas (Dtc_util.Prng.create (500 + seed)) ~procs:3 ~ops_per_proc:3
        ~values:2
    in
    never_fails_run ~seed ~name:"nrl dcas" mk_nrl_dcas workloads
  done

(* The wrapper re-executes across repeated crashes of the recovery. *)
let test_nrl_double_crash () =
  for first = 1 to 10 do
    let machine, inst = mk_nrl_dcas ~n:2 () in
    let cfg =
      {
        Driver.default_config with
        crash_plan = Crash_plan.at_steps [ first; first + 3 ];
      }
    in
    let res =
      Driver.run machine inst
        ~workloads:
          [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 2) ] |]
        cfg
    in
    Test_support.assert_ok inst res ~ctx:(Printf.sprintf "crash %d" first)
  done

let test_nrl_crash_at_every_step () =
  let out =
    Sched.Driver.crash_points
      ~mk:(fun () -> mk_nrl_dcas ~n:2 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Sched.Driver.total_violations

let test_descr_tagged () =
  let _, inst = mk_nrl_dcas () in
  Alcotest.(check bool) "descr mentions nrl" true
    (String.length inst.Obj_inst.descr >= 4
    && String.sub inst.Obj_inst.descr 0 4 = "nrl(")

let suites =
  [
    ( "detectable.nrl",
      [
        Alcotest.test_case "never fails (drw)" `Slow test_nrl_never_fails_drw;
        Alcotest.test_case "never fails (dcas)" `Slow test_nrl_never_fails_dcas;
        Alcotest.test_case "double crash" `Quick test_nrl_double_crash;
        Alcotest.test_case "crash at every step" `Quick
          test_nrl_crash_at_every_step;
        Alcotest.test_case "descr tagged" `Quick test_descr_tagged;
      ] );
  ]
