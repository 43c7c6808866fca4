(* Tests for Algorithm 1: the bounded-space detectable read/write
   object. *)

open Nvm
open History
open Sched

let i n = Value.Int n
let v = Test_support.value_testable

let test_sequential_semantics () =
  let _, _, responses =
    Test_support.solo_run (Test_support.mk_drw ~n:1)
      [ Spec.read_op; Spec.write_op (i 7); Spec.read_op; Spec.write_op (i 2); Spec.read_op ]
  in
  Alcotest.(check (list v)) "responses"
    [ i 0; Spec.ack; i 7; Spec.ack; i 2 ]
    responses

let test_crash_free_concurrent () =
  Test_support.torture ~crash_prob:0.0 ~trials:40 ~name:"drw crash-free"
    (Test_support.mk_drw ~n:3) (fun seed ->
      Workload.register (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:4
        ~values:3)

let test_crash_torture_retry () =
  Test_support.torture ~trials:120 ~name:"drw torture/retry"
    (Test_support.mk_drw ~n:3) (fun seed ->
      Workload.register (Dtc_util.Prng.create (1000 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:2)

let test_crash_torture_giveup () =
  Test_support.torture ~policy:Session.Give_up ~trials:120
    ~name:"drw torture/giveup" (Test_support.mk_drw ~n:3) (fun seed ->
      Workload.register (Dtc_util.Prng.create (2000 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:2)

let test_many_processes () =
  Test_support.torture ~trials:20 ~name:"drw 6 procs"
    (Test_support.mk_drw ~n:6) (fun seed ->
      Workload.register (Dtc_util.Prng.create (3000 + seed)) ~procs:6
        ~ops_per_proc:2 ~values:2)

(* Crash at every single step of a solo write: each run must still check
   out, and recovery must be decisive. *)
let test_crash_at_every_step_solo () =
  let out =
    Sched.Driver.crash_points ~mk:(Test_support.mk_drw ~n:2)
      ~workloads:[| [ Spec.write_op (i 5); Spec.read_op ]; [ Spec.read_op ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Sched.Driver.total_violations;
  Alcotest.(check bool) "explored all crash points" true
    (out.Sched.Driver.executions > 10)

(* The double-crash case: recovery itself is crashed and re-run. *)
let test_double_crash () =
  for first = 1 to 12 do
    for gap = 1 to 6 do
      let machine, inst = Test_support.mk_drw ~n:2 () in
      let cfg =
        {
          Driver.default_config with
          crash_plan = Crash_plan.at_steps [ first; first + gap ];
        }
      in
      let res =
        Driver.run machine inst
          ~workloads:
            [| [ Spec.write_op (i 1) ]; [ Spec.read_op; Spec.read_op ] |]
          cfg
      in
      Test_support.assert_ok inst res
        ~ctx:(Printf.sprintf "double crash %d+%d" first gap)
    done
  done

(* Wait-freedom: a write takes O(N) own steps, a read O(1), with no loops
   that depend on other processes. *)
let test_step_bounds () =
  let n = 5 in
  let machine, inst = Test_support.mk_drw ~n () in
  let prng = Dtc_util.Prng.create 77 in
  let workloads =
    Workload.register (Dtc_util.Prng.split prng) ~procs:n ~ops_per_proc:5
      ~values:3
  in
  let cfg =
    Driver.seeded_config ~max_steps:100_000 ~max_crashes:0 ~crash_prob:0. prng
  in
  let res = Driver.run machine inst ~workloads cfg in
  Test_support.assert_ok inst res ~ctx:"step bounds";
  List.iter
    (fun (opname, steps) ->
      match opname with
      | "write" ->
          (* announce(3) + body(7 + N toggle writes) + slack *)
          Alcotest.(check bool)
            (Printf.sprintf "write steps %d <= %d" steps (14 + n))
            true
            (steps <= 14 + n)
      | "read" ->
          Alcotest.(check bool)
            (Printf.sprintf "read steps %d small" steps)
            true (steps <= 8)
      | _ -> ())
    res.op_steps

(* Bounded space: the footprint after many operations equals the footprint
   after few. *)
let test_bounded_footprint () =
  let footprint ops_per_proc =
    let machine, inst = Test_support.mk_drw ~n:3 () in
    let prng = Dtc_util.Prng.create 4242 in
    let workloads =
      Workload.register (Dtc_util.Prng.split prng) ~procs:3 ~ops_per_proc
        ~values:3
    in
    let cfg = { Driver.default_config with max_steps = 1_000_000 } in
    let res = Driver.run machine inst ~workloads cfg in
    (* histories this long exceed the checker's op cap; correctness is
       covered elsewhere — here we only measure space *)
    Alcotest.(check bool) "run completed" false res.incomplete;
    Mem.max_shared_bits (Runtime.Machine.mem machine)
  in
  Alcotest.(check int) "flat footprint" (footprint 5) (footprint 100)

(* Detectability bookkeeping: with announcements cleared after each op,
   recovery of an idle process does nothing. *)
let test_idle_crash () =
  let machine, inst = Test_support.mk_drw ~n:2 () in
  let session =
    Session.create machine inst ~workloads:[| [ Spec.write_op (i 1) ]; [] |]
  in
  (* run p0 to completion *)
  let rec drain () =
    match Session.runnable session with
    | [] -> ()
    | pid :: _ ->
        Session.step session pid;
        drain ()
  in
  drain ();
  Session.crash session Fault_model.keep_all;
  let rec drain2 () =
    match Session.runnable session with
    | [] -> ()
    | pid :: _ ->
        Session.step session pid;
        drain2 ()
  in
  drain2 ();
  Alcotest.(check (list string)) "no anomalies" [] (Session.anomalies session);
  match Lin_check.check inst.Obj_inst.spec (Session.history session) with
  | Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation m -> Alcotest.fail m

(* QCheck: random seeds, random workloads, random crashes — the paper's
   Lemma 1 as a property. *)
let prop_drw_durable_linearizable =
  QCheck.Test.make ~name:"drw: DL + detectability under random crashes"
    ~count:150
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let workloads =
        Workload.register (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
          ~values:2
      in
      let inst, res =
        Test_support.run_one ~seed (Test_support.mk_drw ~n:3) workloads
      in
      (not res.Driver.incomplete)
      && res.Driver.anomalies = []
      && Lin_check.is_ok (Driver.check inst res))

let suites =
  [
    ( "detectable.drw",
      [
        Alcotest.test_case "sequential semantics" `Quick
          test_sequential_semantics;
        Alcotest.test_case "crash-free concurrent" `Quick
          test_crash_free_concurrent;
        Alcotest.test_case "crash torture (retry)" `Slow
          test_crash_torture_retry;
        Alcotest.test_case "crash torture (giveup)" `Slow
          test_crash_torture_giveup;
        Alcotest.test_case "six processes" `Slow test_many_processes;
        Alcotest.test_case "crash at every step" `Quick
          test_crash_at_every_step_solo;
        Alcotest.test_case "double crash" `Slow test_double_crash;
        Alcotest.test_case "wait-free step bounds" `Quick test_step_bounds;
        Alcotest.test_case "bounded footprint" `Quick test_bounded_footprint;
        Alcotest.test_case "idle crash" `Quick test_idle_crash;
        QCheck_alcotest.to_alcotest prop_drw_durable_linearizable;
      ] );
  ]
