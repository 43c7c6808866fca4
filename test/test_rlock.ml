(* Tests for the recoverable lock and the lock-based detectable counter. *)

open Nvm
open Runtime
open History
open Sched

let i n = Value.Int n
let v = Test_support.value_testable

let mk_prot ?(n = 3) ?(init = 0) () =
  let m = Machine.create () in
  (m, Detectable.Dprotected.instance (Detectable.Dprotected.create m ~n ~init))

(* --- the bare lock --- *)

(* Driver side (no step): does [pid] own the lock? *)
let holds m lock ~pid =
  Value.equal (Machine.peek m (Detectable.Rlock.owner_loc lock)) (i pid)

let drive m f =
  let rec go () =
    match Fiber.status f with
    | Fiber.Pending req ->
        Fiber.resume f (Machine.apply m req);
        go ()
    | Fiber.Done x -> x
    | Fiber.Killed -> Alcotest.fail "killed"
  in
  go ()

let test_lock_acquire_release () =
  let m = Machine.create () in
  let lock = Detectable.Rlock.create m in
  Alcotest.(check bool) "initially free" false (holds m lock ~pid:0);
  let f =
    Fiber.start (fun () ->
        Detectable.Rlock.acquire lock ~pid:0;
        Value.Unit)
  in
  ignore (drive m f);
  Alcotest.(check bool) "acquired" true (holds m lock ~pid:0);
  Alcotest.(check bool) "not by others" false (holds m lock ~pid:1);
  let g =
    Fiber.start (fun () ->
        Detectable.Rlock.release lock ~pid:0;
        Value.Unit)
  in
  ignore (drive m g);
  Alcotest.(check bool) "released" false (holds m lock ~pid:0)

let test_lock_mutual_exclusion () =
  (* a contender spins while the lock is held, and gets it after release *)
  let m = Machine.create () in
  let lock = Detectable.Rlock.create m in
  let f0 =
    Fiber.start (fun () ->
        Detectable.Rlock.acquire lock ~pid:0;
        Value.Unit)
  in
  ignore (drive m f0);
  let f1 =
    Fiber.start (fun () ->
        Detectable.Rlock.acquire lock ~pid:1;
        Value.Unit)
  in
  (* run the contender a while: it must not acquire *)
  for _ = 1 to 20 do
    match Fiber.status f1 with
    | Fiber.Pending req -> Fiber.resume f1 (Machine.apply m req)
    | _ -> Alcotest.fail "contender terminated while lock held"
  done;
  Alcotest.(check bool) "still p0's" true (holds m lock ~pid:0);
  let r =
    Fiber.start (fun () ->
        Detectable.Rlock.release lock ~pid:0;
        Value.Unit)
  in
  ignore (drive m r);
  ignore (drive m f1);
  Alcotest.(check bool) "now p1's" true (holds m lock ~pid:1)

let test_lock_ownership_survives_crash () =
  let m = Machine.create () in
  let lock = Detectable.Rlock.create m in
  let f =
    Fiber.start (fun () ->
        Detectable.Rlock.acquire lock ~pid:2;
        Value.Unit)
  in
  ignore (drive m f);
  (* a crash only kills fibers; NVM ownership persists *)
  Machine.crash m ~index:0 Fault_model.keep_all;
  Alcotest.(check bool) "still owned after crash" true
    (holds m lock ~pid:2)

(* --- the protected counter --- *)

let test_prot_sequential () =
  let _, _, responses =
    Test_support.solo_run (mk_prot ~n:1)
      [ Spec.read_op; Spec.inc_op; Spec.inc_op; Spec.read_op ]
  in
  Alcotest.(check (list v)) "responses" [ i 0; Spec.ack; Spec.ack; i 2 ] responses

let test_prot_crash_free_concurrent () =
  Test_support.torture ~crash_prob:0.0 ~trials:40 ~name:"dprotected crash-free"
    (mk_prot ~n:3) (fun seed ->
      Workload.counter (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:4)

let test_prot_torture () =
  Test_support.torture ~trials:100 ~name:"dprotected torture" (mk_prot ~n:3)
    (fun seed ->
      Workload.counter (Dtc_util.Prng.create (100 + seed)) ~procs:3
        ~ops_per_proc:3)

let test_prot_torture_giveup () =
  Test_support.torture ~policy:Session.Give_up ~trials:100
    ~name:"dprotected torture/giveup" (mk_prot ~n:3) (fun seed ->
      Workload.counter (Dtc_util.Prng.create (200 + seed)) ~procs:3
        ~ops_per_proc:3)

let test_prot_crash_at_every_step () =
  let out =
    Test_support.crash_points ~mk:(mk_prot ~n:2)
      ~workloads:[| [ Spec.inc_op ]; [ Spec.inc_op; Spec.read_op ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations;
  (* and crash points under Give_up: an abandoned inc must not have
     leaked the lock (the run would hang and be cut off) *)
  let out =
    Test_support.crash_points ~mk:(mk_prot ~n:2)
      ~workloads:[| [ Spec.inc_op ]; [ Spec.inc_op; Spec.read_op ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ~policy:Session.Give_up ()
  in
  Alcotest.(check int) "no violations (giveup)" 0
    out.Test_support.total_violations;
  Alcotest.(check int) "no truncated runs" 0 out.Test_support.truncated

(* exactly-once: with Retry, the final counter equals the increments, and
   the mirror cell caught up *)
let test_prot_exactly_once () =
  for seed = 1 to 60 do
    let machine = Machine.create () in
    let prot = Detectable.Dprotected.create machine ~n:2 ~init:0 in
    let inst = Detectable.Dprotected.instance prot in
    let cfg =
      Driver.seeded_config ~max_steps:50_000 ~max_crashes:2 ~crash_prob:0.05
        (Dtc_util.Prng.create (31 * seed))
    in
    let workloads = [| [ Spec.inc_op; Spec.inc_op ]; [ Spec.inc_op ] |] in
    let res = Driver.run machine inst ~workloads cfg in
    Test_support.assert_ok inst res ~ctx:(Printf.sprintf "seed %d" seed);
    match Detectable.Dprotected.shared_locs prot with
    | [ _owner; a; b ] ->
        Alcotest.(check v) (Printf.sprintf "seed %d: a" seed) (i 3)
          (Machine.peek machine a);
        Alcotest.(check v) (Printf.sprintf "seed %d: mirror" seed) (i 3)
          (Machine.peek machine b)
    | _ -> Alcotest.fail "unexpected shared locs"
  done

let prop_prot_durable_linearizable =
  QCheck.Test.make ~name:"dprotected: DL + detectability under random crashes"
    ~count:120
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let workloads =
        Workload.counter (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
      in
      let inst, res =
        Test_support.run_one ~seed ~max_steps:50_000 (mk_prot ~n:3) workloads
      in
      (not res.Driver.incomplete)
      && res.Driver.anomalies = []
      && Lin_check.is_ok (Driver.check inst res))

let suites =
  [
    ( "detectable.rlock",
      [
        Alcotest.test_case "acquire/release" `Quick test_lock_acquire_release;
        Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
        Alcotest.test_case "ownership survives crash" `Quick
          test_lock_ownership_survives_crash;
        Alcotest.test_case "protected: sequential" `Quick test_prot_sequential;
        Alcotest.test_case "protected: crash-free concurrent" `Quick
          test_prot_crash_free_concurrent;
        Alcotest.test_case "protected: torture (retry)" `Slow test_prot_torture;
        Alcotest.test_case "protected: torture (giveup)" `Slow
          test_prot_torture_giveup;
        Alcotest.test_case "protected: crash at every step" `Quick
          test_prot_crash_at_every_step;
        Alcotest.test_case "protected: exactly-once" `Slow
          test_prot_exactly_once;
        QCheck_alcotest.to_alcotest prop_prot_durable_linearizable;
      ] );
  ]
