(* Tests for the extended capsule objects: detectable resettable
   test-and-set, swap, and the appendix's saturating bounded counter. *)

open Nvm
open History
open Sched

let i n = Value.Int n
let v = Test_support.value_testable

let mk_dtas ?(n = 3) () =
  let m = Runtime.Machine.create () in
  (m, Detectable.Transform.instance (Detectable.Transform.tas m ~n))

let mk_dswap ?(n = 3) () =
  let m = Runtime.Machine.create () in
  (m, Detectable.Transform.instance (Detectable.Transform.swap m ~n ~init:(i 0)))

let mk_dbounded ?(n = 3) () =
  let m = Runtime.Machine.create () in
  ( m,
    Detectable.Transform.instance
      (Detectable.Transform.bounded_counter m ~n ~lo:0 ~hi:2 ~init:0) )

(* --- tas --- *)

let test_tas_sequential () =
  let _, _, responses =
    Test_support.solo_run (mk_dtas ~n:1)
      [
        Spec.read_op;
        Spec.tas_op;
        Spec.tas_op;
        Spec.read_op;
        Spec.reset_op;
        Spec.tas_op;
      ]
  in
  Alcotest.(check (list v)) "responses"
    [
      Value.Bool false;
      Value.Bool false;
      Value.Bool true;
      Value.Bool true;
      Spec.ack;
      Value.Bool false;
    ]
    responses

let test_tas_single_winner () =
  (* crash-free: of N concurrent tas calls on a clear flag, exactly one
     returns false *)
  for seed = 1 to 40 do
    let machine, inst = mk_dtas ~n:4 () in
    let prng = Dtc_util.Prng.create seed in
    let cfg =
      {
        Driver.default_config with
        schedule = Schedule.random prng;
      }
    in
    let workloads = Array.make 4 [ Spec.tas_op ] in
    let res = Driver.run machine inst ~workloads cfg in
    Test_support.assert_ok inst res ~ctx:(Printf.sprintf "seed %d" seed);
    let winners =
      List.length
        (List.filter
           (function
             | Event.Ret { v = Value.Bool false; _ } -> true | _ -> false)
           res.Driver.history)
    in
    Alcotest.(check int) (Printf.sprintf "seed %d: one winner" seed) 1 winners
  done

let test_tas_torture () =
  Test_support.torture ~trials:100 ~name:"dtas torture" (mk_dtas ~n:3)
    (fun seed ->
      Workload.tas (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3)

let test_tas_crash_at_every_step () =
  let out =
    Test_support.crash_points ~mk:(mk_dtas ~n:2)
      ~workloads:[| [ Spec.tas_op ]; [ Spec.tas_op; Spec.reset_op ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations

let test_tas_adversary () =
  (* its own doubly-perturbing witness attack must come back clean; the
     capsule's operations are long, so sweep crash points over several
     fixed interleavings instead of full delay-bounded exploration *)
  let e = Perturb.Witnesses.tas in
  let schedules =
    [
      (fun () -> Schedule.round_robin ());
      (fun () -> Schedule.scripted (List.init 200 (fun _ -> 0)));
      (fun () -> Schedule.scripted (List.init 200 (fun _ -> 1)));
      (fun () ->
        Schedule.scripted (List.concat (List.init 50 (fun _ -> [ 0; 0; 1 ]))));
    ]
  in
  List.iter
    (fun schedule ->
      List.iter
        (fun policy ->
          let out =
            Test_support.crash_points
              ~mk:(fun () -> mk_dtas ~n:2 ())
              ~workloads:e.Perturb.Witnesses.attack ~schedule ~policy ()
          in
          Alcotest.(check int) "dtas survives" 0
            out.Test_support.total_violations)
        [ Session.Retry; Session.Give_up ])
    schedules

(* bounded space: the flag cell is 1 value bit + N vec bits, flat in ops *)
let test_tas_bounded_space () =
  let footprint ops =
    let machine = Runtime.Machine.create () in
    let t = Detectable.Transform.tas machine ~n:3 in
    let inst = Detectable.Transform.instance t in
    let workloads =
      Array.init 3 (fun _ ->
          List.concat (List.init ops (fun _ -> [ Spec.tas_op; Spec.reset_op ])))
    in
    let cfg = { Driver.default_config with max_steps = 10_000_000 } in
    let res = Driver.run machine inst ~workloads cfg in
    Alcotest.(check bool) "complete" false res.Driver.incomplete;
    let c =
      match Detectable.Transform.shared_locs t with
      | [ c ] -> c
      | _ -> assert false
    in
    Mem.max_bits_of (Runtime.Machine.mem machine) c
  in
  Alcotest.(check int) "flat" (footprint 3) (footprint 100)

(* --- swap --- *)

let test_swap_sequential () =
  let _, _, responses =
    Test_support.solo_run (mk_dswap ~n:1)
      [ Spec.swap_op (i 4); Spec.swap_op (i 7); Spec.read_op ]
  in
  Alcotest.(check (list v)) "returns previous" [ i 0; i 4; i 7 ] responses

let test_swap_torture () =
  Test_support.torture ~trials:100 ~name:"dswap torture" (mk_dswap ~n:3)
    (fun seed ->
      Workload.swap (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
        ~values:3)

let test_swap_crash_at_every_step () =
  let out =
    Test_support.crash_points ~mk:(mk_dswap ~n:2)
      ~workloads:[| [ Spec.swap_op (i 1) ]; [ Spec.swap_op (i 2); Spec.read_op ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations

(* identity swap (same value) exercises the read-only identity path *)
let test_swap_identity () =
  Test_support.torture ~trials:60 ~name:"dswap identity" (mk_dswap ~n:3)
    (fun seed ->
      Workload.swap (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
        ~values:1)

(* --- bounded counter --- *)

let test_bounded_counter_sequential () =
  let _, _, responses =
    Test_support.solo_run (mk_dbounded ~n:1)
      [ Spec.inc_op; Spec.inc_op; Spec.inc_op; Spec.read_op ]
  in
  Alcotest.(check v) "saturates at hi" (i 2) (List.nth responses 3)

let test_bounded_counter_torture () =
  Test_support.torture ~trials:100 ~name:"dbounded torture" (mk_dbounded ~n:3)
    (fun seed ->
      Workload.counter (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3)

let test_bounded_counter_invalid_init () =
  let machine = Runtime.Machine.create () in
  match Detectable.Transform.bounded_counter machine ~n:1 ~lo:0 ~hi:2 ~init:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range init accepted"

let prop_tas_durable_linearizable =
  QCheck.Test.make ~name:"dtas: DL + detectability under random crashes"
    ~count:120
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let workloads =
        Workload.tas (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
      in
      let inst, res =
        Test_support.run_one ~seed ~max_steps:50_000 (mk_dtas ~n:3) workloads
      in
      (not res.Driver.incomplete)
      && res.Driver.anomalies = []
      && Lin_check.is_ok (Driver.check inst res))

let prop_swap_durable_linearizable =
  QCheck.Test.make ~name:"dswap: DL + detectability under random crashes"
    ~count:120
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let workloads =
        Workload.swap (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
          ~values:2
      in
      let inst, res =
        Test_support.run_one ~seed ~max_steps:50_000 (mk_dswap ~n:3) workloads
      in
      (not res.Driver.incomplete)
      && res.Driver.anomalies = []
      && Lin_check.is_ok (Driver.check inst res))

let suites =
  [
    ( "detectable.extras",
      [
        Alcotest.test_case "tas sequential" `Quick test_tas_sequential;
        Alcotest.test_case "tas single winner" `Quick test_tas_single_winner;
        Alcotest.test_case "tas torture" `Slow test_tas_torture;
        Alcotest.test_case "tas crash at every step" `Quick
          test_tas_crash_at_every_step;
        Alcotest.test_case "tas survives witness attack" `Slow
          test_tas_adversary;
        Alcotest.test_case "tas bounded space" `Quick test_tas_bounded_space;
        Alcotest.test_case "swap sequential" `Quick test_swap_sequential;
        Alcotest.test_case "swap torture" `Slow test_swap_torture;
        Alcotest.test_case "swap crash at every step" `Quick
          test_swap_crash_at_every_step;
        Alcotest.test_case "swap identity path" `Quick test_swap_identity;
        Alcotest.test_case "bounded counter sequential" `Quick
          test_bounded_counter_sequential;
        Alcotest.test_case "bounded counter torture" `Slow
          test_bounded_counter_torture;
        Alcotest.test_case "bounded counter invalid init" `Quick
          test_bounded_counter_invalid_init;
        QCheck_alcotest.to_alcotest prop_tas_durable_linearizable;
        QCheck_alcotest.to_alcotest prop_swap_durable_linearizable;
      ] );
  ]
