(* Tests for Algorithm 2: the bounded-space detectable CAS object. *)

open Nvm
open History
open Sched

let i n = Value.Int n
let v = Test_support.value_testable

let test_sequential_semantics () =
  let _, _, responses =
    Test_support.solo_run (Test_support.mk_dcas ~n:1)
      [
        Spec.read_op;
        Spec.cas_op (i 0) (i 5);
        Spec.cas_op (i 0) (i 9);
        Spec.read_op;
        Spec.cas_op (i 5) (i 0);
      ]
  in
  Alcotest.(check (list v)) "responses"
    [ i 0; Value.Bool true; Value.Bool false; i 5; Value.Bool true ]
    responses

let test_crash_free_concurrent () =
  Test_support.torture ~crash_prob:0.0 ~trials:40 ~name:"dcas crash-free"
    (Test_support.mk_dcas ~n:3) (fun seed ->
      Workload.cas (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:4
        ~values:3)

let test_crash_torture_retry () =
  Test_support.torture ~trials:120 ~name:"dcas torture/retry"
    (Test_support.mk_dcas ~n:3) (fun seed ->
      Workload.cas (Dtc_util.Prng.create (1000 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:2)

let test_crash_torture_giveup () =
  Test_support.torture ~policy:Session.Give_up ~trials:120
    ~name:"dcas torture/giveup" (Test_support.mk_dcas ~n:3) (fun seed ->
      Workload.cas (Dtc_util.Prng.create (2000 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:2)

let test_crash_at_every_step () =
  let out =
    Test_support.crash_points ~mk:(Test_support.mk_dcas ~n:2)
      ~workloads:
        [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations;
  (* pinned: the crash-free run takes 15 steps, so 1 + 15 runs *)
  Alcotest.(check (triple int int int)) "executions, truncated, violations"
    (16, 0, 0)
    (out.Test_support.executions, out.truncated, out.total_violations)

(* ABA stress: tiny value domain forces the same values to be reinstalled
   repeatedly; vec bits must still disambiguate. *)
let test_aba_stress () =
  Test_support.torture ~trials:100 ~max_crashes:3 ~crash_prob:0.08
    ~name:"dcas aba" (Test_support.mk_dcas ~n:4) (fun seed ->
      Workload.cas (Dtc_util.Prng.create (5000 + seed)) ~procs:4
        ~ops_per_proc:3 ~values:2)

(* Identity-CAS storm: cas(v,v) operations mixed with real CASes and
   crashes — the published algorithm's pair-CAS would spuriously fail
   these (see the module documentation of Dcas); the read-only identity
   path must keep every history linearizable. *)
let test_identity_cas_storm () =
  Test_support.torture ~trials:100 ~name:"dcas identity storm"
    (Test_support.mk_dcas ~n:3) (fun seed ->
      let prng = Dtc_util.Prng.create (9_000 + seed) in
      Array.init 3 (fun _ ->
          List.init 3 (fun _ ->
              match Dtc_util.Prng.int prng 4 with
              | 0 -> Spec.cas_op (i 0) (i 0)
              | 1 -> Spec.cas_op (i 1) (i 1)
              | 2 -> Spec.cas_op (i 0) (i 1)
              | _ -> Spec.cas_op (i 1) (i 0))))

(* The flip-vector invariant: after any crash-free successful CAS by p,
   C.vec[p] differs from its value before the operation. *)
let test_vec_flips_on_success () =
  let machine = Runtime.Machine.create () in
  let d = Detectable.Dcas.create machine ~n:2 ~init:(i 0) in
  let inst = Detectable.Dcas.instance d in
  let c =
    match Detectable.Dcas.shared_locs d with [ c ] -> c | _ -> assert false
  in
  let vec_bit () =
    Value.to_bool (Value.nth (Value.nth (Runtime.Machine.peek machine c) 1) 0)
  in
  let before = vec_bit () in
  let res =
    Driver.run machine inst
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ] |]
      Driver.default_config
  in
  Test_support.assert_ok inst res ~ctx:"vec flip";
  Alcotest.(check bool) "bit flipped" (not before) (vec_bit ())

let test_vec_stable_on_failure () =
  let machine = Runtime.Machine.create () in
  let d = Detectable.Dcas.create machine ~n:2 ~init:(i 0) in
  let inst = Detectable.Dcas.instance d in
  let c =
    match Detectable.Dcas.shared_locs d with [ c ] -> c | _ -> assert false
  in
  let vec_bit () =
    Value.to_bool (Value.nth (Value.nth (Runtime.Machine.peek machine c) 1) 0)
  in
  let before = vec_bit () in
  let res =
    Driver.run machine inst
      ~workloads:[| [ Spec.cas_op (i 7) (i 1) ] |]
      Driver.default_config
  in
  Test_support.assert_ok inst res ~ctx:"vec stable";
  Alcotest.(check bool) "bit unchanged" before (vec_bit ())

(* Wait-freedom: CAS is loop-free — constant own steps. *)
let test_step_bounds () =
  let machine, inst = Test_support.mk_dcas ~n:8 () in
  let prng = Dtc_util.Prng.create 7 in
  let workloads =
    Workload.cas (Dtc_util.Prng.split prng) ~procs:8 ~ops_per_proc:4 ~values:3
  in
  let cfg =
    Driver.seeded_config ~max_steps:100_000 ~max_crashes:0 ~crash_prob:0. prng
  in
  let res = Driver.run machine inst ~workloads cfg in
  Test_support.assert_ok inst res ~ctx:"step bounds";
  List.iter
    (fun (opname, steps) ->
      match opname with
      | "cas" ->
          Alcotest.(check bool)
            (Printf.sprintf "cas steps %d constant" steps)
            true (steps <= 12)
      | "read" ->
          Alcotest.(check bool)
            (Printf.sprintf "read steps %d constant" steps)
            true (steps <= 8)
      | _ -> ())
    res.op_steps

(* Θ(N) space: C's footprint is the value bits + exactly N vector bits, and
   it does not grow with the number of operations. *)
let test_theta_n_space () =
  let extra_bits n =
    let machine = Runtime.Machine.create () in
    let d = Detectable.Dcas.create machine ~n ~init:(i 0) in
    let inst = Detectable.Dcas.instance d in
    let prng = Dtc_util.Prng.create 99 in
    let workloads =
      Workload.cas (Dtc_util.Prng.split prng) ~procs:n ~ops_per_proc:5
        ~values:2
    in
    let res = Driver.run machine inst ~workloads Driver.default_config in
    Test_support.assert_ok inst res ~ctx:"space run";
    let c =
      match Detectable.Dcas.shared_locs d with [ c ] -> c | _ -> assert false
    in
    (* subtract the value's own bits (values 0/1 = 1 bit) *)
    Mem.max_bits_of (Runtime.Machine.mem machine) c - 1
  in
  Alcotest.(check int) "N=2" 2 (extra_bits 2);
  Alcotest.(check int) "N=5" 5 (extra_bits 5);
  Alcotest.(check int) "N=9" 9 (extra_bits 9)

let prop_dcas_durable_linearizable =
  QCheck.Test.make ~name:"dcas: DL + detectability under random crashes"
    ~count:150
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let workloads =
        Workload.cas (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
          ~values:2
      in
      let inst, res =
        Test_support.run_one ~seed (Test_support.mk_dcas ~n:3) workloads
      in
      (not res.Driver.incomplete)
      && res.Driver.anomalies = []
      && Lin_check.is_ok (Driver.check inst res))

let suites =
  [
    ( "detectable.dcas",
      [
        Alcotest.test_case "sequential semantics" `Quick
          test_sequential_semantics;
        Alcotest.test_case "crash-free concurrent" `Quick
          test_crash_free_concurrent;
        Alcotest.test_case "crash torture (retry)" `Slow
          test_crash_torture_retry;
        Alcotest.test_case "crash torture (giveup)" `Slow
          test_crash_torture_giveup;
        Alcotest.test_case "crash at every step" `Quick
          test_crash_at_every_step;
        Alcotest.test_case "ABA stress" `Slow test_aba_stress;
        Alcotest.test_case "identity CAS storm" `Slow test_identity_cas_storm;
        Alcotest.test_case "vec flips on success" `Quick
          test_vec_flips_on_success;
        Alcotest.test_case "vec stable on failure" `Quick
          test_vec_stable_on_failure;
        Alcotest.test_case "wait-free step bounds" `Quick test_step_bounds;
        Alcotest.test_case "Θ(N) space" `Quick test_theta_n_space;
        QCheck_alcotest.to_alcotest prop_dcas_durable_linearizable;
      ] );
  ]
