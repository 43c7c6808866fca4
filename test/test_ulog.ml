(* Tests for the log-based universal construction and the durable
   (non-detectable) queue — the Section 6 alternatives to the paper's
   bespoke algorithms. *)

open Nvm
open Runtime
open History
open Sched

let i n = Value.Int n
let v = Test_support.value_testable

let mk_ulog ?(mode = `Detectable) ?(n = 3) ?(capacity = 64) ~spec () =
  let m = Machine.create () in
  (m, Detectable.Ulog.instance (Detectable.Ulog.create ~mode m ~n ~capacity ~spec))

let mk_ulog_reg ?mode ?n ?capacity () =
  mk_ulog ?mode ?n ?capacity ~spec:(Spec.register (i 0)) ()

let mk_ulog_queue ?mode ?n ?capacity () =
  mk_ulog ?mode ?n ?capacity ~spec:(Spec.fifo_queue ()) ()

let mk_dur_queue ?(n = 3) ?(capacity = 64) () =
  let m = Machine.create () in
  (m, Baselines.Dur_queue.instance (Baselines.Dur_queue.create m ~n ~capacity))

(* --- universal construction: genericity --- *)

let test_ulog_register_sequential () =
  let _, _, responses =
    Test_support.solo_run (mk_ulog_reg ~n:1)
      [ Spec.read_op; Spec.write_op (i 5); Spec.read_op ]
  in
  Alcotest.(check (list v)) "register semantics" [ i 0; Spec.ack; i 5 ] responses

let test_ulog_queue_sequential () =
  let _, _, responses =
    Test_support.solo_run (mk_ulog_queue ~n:1)
      [ Spec.enq_op (i 1); Spec.enq_op (i 2); Spec.deq_op; Spec.deq_op ]
  in
  Alcotest.(check (list v)) "queue semantics"
    [ Spec.ack; Spec.ack; i 1; i 2 ]
    responses

let test_ulog_counter_sequential () =
  let _, _, responses =
    Test_support.solo_run
      (fun () -> mk_ulog ~n:1 ~spec:(Spec.counter 0) ())
      [ Spec.inc_op; Spec.inc_op; Spec.read_op ]
  in
  Alcotest.(check v) "counter semantics" (i 2) (List.nth responses 2)

(* --- detectable mode --- *)

let test_ulog_detectable_torture () =
  Test_support.torture ~trials:80 ~name:"ulog/detectable torture"
    (mk_ulog_reg ~n:3) (fun seed ->
      Workload.register (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
        ~values:2)

let test_ulog_detectable_queue_torture () =
  Test_support.torture ~trials:80 ~name:"ulog/queue torture"
    (mk_ulog_queue ~n:3) (fun seed ->
      Workload.queue (Dtc_util.Prng.create (500 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:3)

let test_ulog_crash_at_every_step () =
  let out =
    Sched.Driver.crash_points ~mk:(mk_ulog_reg ~n:2)
      ~workloads:[| [ Spec.write_op (i 5) ]; [ Spec.read_op; Spec.write_op (i 2) ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Sched.Driver.total_violations

(* the log grows with operations: the unbounded-space trade *)
let test_ulog_log_grows () =
  let len ops =
    let machine = Machine.create () in
    let u =
      Detectable.Ulog.create machine ~n:1 ~capacity:(ops + 4)
        ~spec:(Spec.register (i 0))
    in
    let inst = Detectable.Ulog.instance u in
    let workloads = [| List.init ops (fun _ -> Spec.write_op (i 1)) |] in
    let cfg = { Driver.default_config with max_steps = 10_000_000 } in
    let res = Driver.run machine inst ~workloads cfg in
    Alcotest.(check bool) "complete" false res.Driver.incomplete;
    Detectable.Ulog.log_length machine u
  in
  Alcotest.(check int) "one entry per op (10)" 10 (len 10);
  Alcotest.(check int) "one entry per op (40)" 40 (len 40)

let test_ulog_capacity_exhaustion () =
  let machine = Machine.create () in
  let u =
    Detectable.Ulog.create machine ~n:1 ~capacity:2 ~spec:(Spec.register (i 0))
  in
  let inst = Detectable.Ulog.instance u in
  match
    Driver.run machine inst
      ~workloads:[| List.init 3 (fun _ -> Spec.write_op (i 1)) |]
      Driver.default_config
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected log-full error"

(* --- durable mode: DL holds, detectability doesn't --- *)

let test_ulog_durable_consistent () =
  (* histories remain consistent (pending ops are May) even though
     recovery answers unknown *)
  Test_support.torture ~trials:80 ~name:"ulog/durable torture"
    (mk_ulog_reg ~mode:`Durable ~n:3) (fun seed ->
      Workload.register (Dtc_util.Prng.create (800 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:2)

let test_dur_queue_consistent () =
  Test_support.torture ~trials:80 ~name:"dur_queue torture" (mk_dur_queue ~n:3)
    (fun seed ->
      Workload.queue (Dtc_util.Prng.create (900 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:3)

let test_dur_queue_sequential () =
  let _, _, responses =
    Test_support.solo_run
      (mk_dur_queue ~n:1)
      [ Spec.enq_op (i 1); Spec.deq_op; Spec.deq_op ]
  in
  Alcotest.(check (list v)) "fifo" [ Spec.ack; i 1; Value.Str "empty" ] responses

(* the crucial difference: under Retry, the durable variants can
   duplicate an interrupted enqueue — the detectable queue cannot *)
let count_duplicate_consumption ~mk ~seeds =
  let dups = ref 0 in
  List.iter
    (fun seed ->
      let machine, inst = mk () in
      let cfg =
        Driver.seeded_config ~max_steps:100_000 ~max_crashes:3 ~crash_prob:0.12
          (Dtc_util.Prng.create seed)
      in
      (* unique values so duplicates are identifiable; consumers over-poll *)
      let workloads =
        [|
          List.init 3 (fun k -> Spec.enq_op (i (100 + k)));
          List.init 3 (fun k -> Spec.enq_op (i (200 + k)));
          List.init 8 (fun _ -> Spec.deq_op);
        |]
      in
      let res = Driver.run machine inst ~workloads cfg in
      Test_support.assert_ok inst res ~ctx:(Printf.sprintf "seed %d" seed);
      let consumed =
        List.filter_map
          (function
            | Event.Ret { v = Value.Int x; _ }
            | Event.Rec_ret { v = Value.Int x; _ } ->
                Some x
            | _ -> None)
          res.Driver.history
      in
      let sorted = List.sort compare consumed in
      let rec count = function
        | a :: b :: rest when a = b -> 1 + count (b :: rest)
        | _ :: rest -> count rest
        | [] -> 0
      in
      dups := !dups + count sorted)
    seeds;
  !dups

let test_detectable_queue_never_duplicates () =
  let seeds = List.init 60 (fun k -> 7000 + k) in
  Alcotest.(check int) "no duplicates" 0
    (count_duplicate_consumption
       ~mk:(fun () -> Test_support.mk_dqueue ~n:3 ~capacity:64 ())
       ~seeds)

let test_durable_queue_can_duplicate () =
  (* histories stay DL-consistent (the checker passed above); the
     application-level duplicates are what detectability prevents *)
  let seeds = List.init 60 (fun k -> 7000 + k) in
  Alcotest.(check bool) "duplicates appear" true
    (count_duplicate_consumption ~mk:(fun () -> mk_dur_queue ~n:3 ()) ~seeds > 0)

let suites =
  [
    ( "detectable.ulog",
      [
        Alcotest.test_case "register semantics" `Quick
          test_ulog_register_sequential;
        Alcotest.test_case "queue semantics" `Quick test_ulog_queue_sequential;
        Alcotest.test_case "counter semantics" `Quick
          test_ulog_counter_sequential;
        Alcotest.test_case "detectable torture" `Slow
          test_ulog_detectable_torture;
        Alcotest.test_case "detectable queue torture" `Slow
          test_ulog_detectable_queue_torture;
        Alcotest.test_case "crash at every step" `Quick
          test_ulog_crash_at_every_step;
        Alcotest.test_case "log grows" `Quick test_ulog_log_grows;
        Alcotest.test_case "capacity exhaustion" `Quick
          test_ulog_capacity_exhaustion;
        Alcotest.test_case "durable mode consistent" `Slow
          test_ulog_durable_consistent;
      ] );
    ( "baselines.dur_queue",
      [
        Alcotest.test_case "sequential" `Quick test_dur_queue_sequential;
        Alcotest.test_case "DL holds under torture" `Slow
          test_dur_queue_consistent;
        Alcotest.test_case "detectable queue never duplicates" `Slow
          test_detectable_queue_never_duplicates;
        Alcotest.test_case "durable queue can duplicate" `Slow
          test_durable_queue_can_duplicate;
      ] );
  ]
