(* Tests for the capsule transform: detectable counter and fetch-and-add
   built over the detectable CAS core. *)

open Nvm
open History
open Sched

let i n = Value.Int n
let v = Test_support.value_testable

let test_counter_sequential () =
  let _, _, responses =
    Test_support.solo_run (Test_support.mk_dcounter ~n:1)
      [ Spec.read_op; Spec.inc_op; Spec.inc_op; Spec.read_op ]
  in
  Alcotest.(check (list v)) "responses"
    [ i 0; Spec.ack; Spec.ack; i 2 ]
    responses

let test_faa_sequential () =
  let _, _, responses =
    Test_support.solo_run (Test_support.mk_dfaa ~n:1)
      [ Spec.faa_op 5; Spec.faa_op 3; Spec.read_op ]
  in
  Alcotest.(check (list v)) "faa returns old" [ i 0; i 5; i 8 ] responses

(* Exactly-once increments: with Retry, every inc eventually takes effect
   exactly once — the final counter value equals the number of incs. *)
let test_exactly_once_increments () =
  for seed = 1 to 60 do
    let n_incs = 6 in
    let workloads =
      [|
        List.init 3 (fun _ -> Spec.inc_op);
        List.init 3 (fun _ -> Spec.inc_op);
      |]
    in
    let machine = Runtime.Machine.create () in
    let t = Detectable.Transform.counter machine ~n:2 ~init:0 in
    let inst = Detectable.Transform.instance t in
    let cfg =
      Driver.seeded_config ~max_steps:50_000 ~max_crashes:2 ~crash_prob:0.05
        (Dtc_util.Prng.create (31 * seed))
    in
    let res = Driver.run machine inst ~workloads cfg in
    Test_support.assert_ok inst res ~ctx:(Printf.sprintf "seed %d" seed);
    (* read back the final value sequentially *)
    let c =
      match Detectable.Transform.shared_locs t with
      | [ c ] -> c
      | _ -> assert false
    in
    let final = Value.to_int (Value.nth (Runtime.Machine.peek machine c) 0) in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: exactly-once" seed)
      n_incs final
  done

let test_counter_torture () =
  Test_support.torture ~trials:100 ~name:"dcounter torture"
    (Test_support.mk_dcounter ~n:3) (fun seed ->
      Workload.counter (Dtc_util.Prng.create (100 + seed)) ~procs:3
        ~ops_per_proc:3)

let test_faa_torture () =
  Test_support.torture ~trials:100 ~name:"dfaa torture"
    (Test_support.mk_dfaa ~n:3) (fun seed ->
      Workload.faa (Dtc_util.Prng.create (200 + seed)) ~procs:3 ~ops_per_proc:3
        ~max_delta:3)

let test_faa_giveup_torture () =
  Test_support.torture ~policy:Session.Give_up ~trials:100
    ~name:"dfaa torture/giveup" (Test_support.mk_dfaa ~n:3) (fun seed ->
      Workload.faa (Dtc_util.Prng.create (300 + seed)) ~procs:3 ~ops_per_proc:3
        ~max_delta:3)

let test_crash_at_every_step () =
  let out =
    Test_support.crash_points ~mk:(Test_support.mk_dfaa ~n:2)
      ~workloads:[| [ Spec.faa_op 2 ]; [ Spec.faa_op 5; Spec.read_op ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations

(* A crashed read that never persisted a response must recover as fail,
   never inventing a value. *)
let test_crashed_read_fails_cleanly () =
  for k = 1 to 6 do
    let machine, inst = Test_support.mk_dcounter ~n:2 () in
    let cfg =
      {
        Driver.default_config with
        policy = Session.Give_up;
        crash_plan = Crash_plan.at_steps [ k ];
      }
    in
    let res =
      Driver.run machine inst
        ~workloads:[| [ Spec.read_op ]; [ Spec.inc_op ] |]
        cfg
    in
    Test_support.assert_ok inst res ~ctx:(Printf.sprintf "crash at %d" k)
  done

let prop_transform_durable_linearizable =
  QCheck.Test.make ~name:"dfaa: DL + detectability under random crashes"
    ~count:120
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let workloads =
        Workload.faa (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:2
          ~max_delta:4
      in
      let inst, res =
        Test_support.run_one ~seed ~max_steps:50_000
          (Test_support.mk_dfaa ~n:3) workloads
      in
      (not res.Driver.incomplete)
      && res.Driver.anomalies = []
      && Lin_check.is_ok (Driver.check inst res))

let suites =
  [
    ( "detectable.transform",
      [
        Alcotest.test_case "counter sequential" `Quick test_counter_sequential;
        Alcotest.test_case "faa sequential" `Quick test_faa_sequential;
        Alcotest.test_case "exactly-once increments" `Slow
          test_exactly_once_increments;
        Alcotest.test_case "counter torture" `Slow test_counter_torture;
        Alcotest.test_case "faa torture" `Slow test_faa_torture;
        Alcotest.test_case "faa torture (giveup)" `Slow test_faa_giveup_torture;
        Alcotest.test_case "crash at every step" `Quick
          test_crash_at_every_step;
        Alcotest.test_case "crashed read fails cleanly" `Quick
          test_crashed_read_fails_cleanly;
        QCheck_alcotest.to_alcotest prop_transform_durable_linearizable;
      ] );
  ]
