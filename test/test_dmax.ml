(* Tests for Algorithm 3: the auxiliary-state-free detectable max
   register. *)

open Nvm
open History
open Sched

let i n = Value.Int n
let v = Test_support.value_testable

let test_sequential_semantics () =
  let _, _, responses =
    Test_support.solo_run (Test_support.mk_dmax ~n:1)
      [
        Spec.read_op;
        Spec.write_max_op 5;
        Spec.read_op;
        Spec.write_max_op 3;
        Spec.read_op;
        Spec.write_max_op 8;
        Spec.read_op;
      ]
  in
  Alcotest.(check (list v)) "responses"
    [ i 0; Spec.ack; i 5; Spec.ack; i 5; Spec.ack; i 8 ]
    responses

let test_crash_free_concurrent () =
  Test_support.torture ~crash_prob:0.0 ~trials:40 ~name:"dmax crash-free"
    (Test_support.mk_dmax ~n:3) (fun seed ->
      Workload.max_register (Dtc_util.Prng.create seed) ~procs:3
        ~ops_per_proc:4 ~values:6)

let test_crash_torture () =
  Test_support.torture ~trials:120 ~name:"dmax torture"
    (Test_support.mk_dmax ~n:3) (fun seed ->
      Workload.max_register (Dtc_util.Prng.create (1000 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:5)

let test_crash_at_every_step () =
  let out =
    Test_support.crash_points ~mk:(Test_support.mk_dmax ~n:2)
      ~workloads:
        [| [ Spec.write_max_op 4; Spec.read_op ]; [ Spec.write_max_op 2 ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations

(* Recovery is pure re-invocation: the operation itself never reads the
   announcement fields.  We verify behaviourally: recovery after a crash
   mid-write still converges and every history checks out, even though no
   response was ever persisted. *)
let test_reinvocation_recovery () =
  for k = 1 to 10 do
    let machine, inst = Test_support.mk_dmax ~n:2 () in
    let cfg =
      { Driver.default_config with crash_plan = Crash_plan.at_steps [ k ] }
    in
    let res =
      Driver.run machine inst
        ~workloads:[| [ Spec.write_max_op 6 ]; [ Spec.read_op; Spec.read_op ] |]
        cfg
    in
    Test_support.assert_ok inst res ~ctx:(Printf.sprintf "crash at %d" k)
  done

(* The double collect read is linearizable even while writers run. *)
let test_read_during_writes () =
  Test_support.torture ~crash_prob:0.0 ~trials:40 ~name:"dmax read/write race"
    (Test_support.mk_dmax ~n:4) (fun seed ->
      let prng = Dtc_util.Prng.create (7000 + seed) in
      Array.init 4 (fun pid ->
          if pid = 0 then [ Spec.read_op; Spec.read_op; Spec.read_op ]
          else
            List.init 3 (fun _ ->
                Spec.write_max_op (Dtc_util.Prng.int prng 8))))

(* Monotonicity across crashes: reads never go backwards. *)
let test_monotone_reads () =
  for seed = 1 to 50 do
    let workloads =
      let prng = Dtc_util.Prng.create (880 + seed) in
      Array.init 3 (fun pid ->
          if pid = 0 then List.init 4 (fun _ -> Spec.read_op)
          else
            List.init 3 (fun _ ->
                Spec.write_max_op (Dtc_util.Prng.int prng 9)))
    in
    let inst, res =
      Test_support.run_one ~seed (Test_support.mk_dmax ~n:3) workloads
    in
    Test_support.assert_ok inst res ~ctx:"monotone";
    (* reads of process 0, in order *)
    let reads =
      List.filter_map
        (function
          | Event.Ret { pid = 0; v = Value.Int x; _ } -> Some x
          | Event.Rec_ret { pid = 0; v = Value.Int x; _ } -> Some x
          | _ -> None)
        res.Driver.history
    in
    let rec monotone = function
      | a :: b :: rest -> a <= b && monotone (b :: rest)
      | _ -> true
    in
    if not (monotone reads) then
      Alcotest.failf "seed %d: reads went backwards: %s" seed
        (String.concat "," (List.map string_of_int reads))
  done

let prop_dmax_durable_linearizable =
  QCheck.Test.make ~name:"dmax: DL under random crashes" ~count:150
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let workloads =
        Workload.max_register (Dtc_util.Prng.create seed) ~procs:3
          ~ops_per_proc:3 ~values:5
      in
      let inst, res =
        Test_support.run_one ~seed (Test_support.mk_dmax ~n:3) workloads
      in
      (not res.Driver.incomplete)
      && res.Driver.anomalies = []
      && Lin_check.is_ok (Driver.check inst res))

let suites =
  [
    ( "detectable.dmax",
      [
        Alcotest.test_case "sequential semantics" `Quick
          test_sequential_semantics;
        Alcotest.test_case "crash-free concurrent" `Quick
          test_crash_free_concurrent;
        Alcotest.test_case "crash torture" `Slow test_crash_torture;
        Alcotest.test_case "crash at every step" `Quick
          test_crash_at_every_step;
        Alcotest.test_case "re-invocation recovery" `Quick
          test_reinvocation_recovery;
        Alcotest.test_case "read during writes" `Quick test_read_during_writes;
        Alcotest.test_case "monotone reads" `Quick test_monotone_reads;
        QCheck_alcotest.to_alcotest prop_dmax_durable_linearizable;
      ] );
  ]
