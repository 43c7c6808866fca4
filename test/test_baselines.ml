(* Tests for the baseline implementations: the unbounded-tag detectable
   objects (Urw, Ucas) and the plain non-recoverable ones. *)

open Nvm
open History
open Sched

let i n = Value.Int n
let v = Test_support.value_testable

(* --- Urw --- *)

let test_urw_sequential () =
  let _, _, responses =
    Test_support.solo_run (Test_support.mk_urw ~n:1)
      [ Spec.read_op; Spec.write_op (i 3); Spec.read_op ]
  in
  Alcotest.(check (list v)) "responses" [ i 0; Spec.ack; i 3 ] responses

let test_urw_torture () =
  Test_support.torture ~trials:100 ~name:"urw torture"
    (Test_support.mk_urw ~n:3) (fun seed ->
      Workload.register (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
        ~values:2)

let test_urw_crash_at_every_step () =
  let out =
    Test_support.crash_points ~mk:(Test_support.mk_urw ~n:2)
      ~workloads:[| [ Spec.write_op (i 5); Spec.read_op ]; [ Spec.read_op ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations

(* The defining property of the baseline: the register's footprint grows
   with the number of operations (unbounded tags). *)
let test_urw_unbounded_growth () =
  let footprint ops =
    let machine = Runtime.Machine.create () in
    let u = Baselines.Urw.create machine ~n:1 ~init:(i 0) in
    let inst = Baselines.Urw.instance u in
    let workloads = [| List.init ops (fun _ -> Spec.write_op (i 1)) |] in
    let cfg = { Driver.default_config with max_steps = 10_000_000 } in
    let res = Driver.run machine inst ~workloads cfg in
    Alcotest.(check bool) "run completed" false res.incomplete;
    let r =
      match Baselines.Urw.shared_locs u with [ r ] -> r | _ -> assert false
    in
    Mem.max_bits_of (Runtime.Machine.mem machine) r
  in
  Alcotest.(check bool) "footprint grows" true (footprint 2000 > footprint 10)

(* --- Ucas --- *)

let test_ucas_sequential () =
  let _, _, responses =
    Test_support.solo_run (Test_support.mk_ucas ~n:1)
      [
        Spec.cas_op (i 0) (i 1);
        Spec.cas_op (i 0) (i 2);
        Spec.read_op;
        Spec.cas_op (i 1) (i 0);
      ]
  in
  Alcotest.(check (list v)) "responses"
    [ Value.Bool true; Value.Bool false; i 1; Value.Bool true ]
    responses

let test_ucas_torture () =
  Test_support.torture ~trials:100 ~name:"ucas torture"
    (Test_support.mk_ucas ~n:3) (fun seed ->
      Workload.cas (Dtc_util.Prng.create (700 + seed)) ~procs:3 ~ops_per_proc:3
        ~values:2)

let test_ucas_crash_at_every_step () =
  let out =
    Test_support.crash_points ~mk:(Test_support.mk_ucas ~n:2)
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations

let test_ucas_aba_with_crashes () =
  (* small domains force value reuse; unique tags must keep recovery
     decisive *)
  Test_support.torture ~trials:100 ~max_crashes:3 ~crash_prob:0.08
    ~name:"ucas aba" (Test_support.mk_ucas ~n:4) (fun seed ->
      Workload.cas (Dtc_util.Prng.create (900 + seed)) ~procs:4 ~ops_per_proc:3
        ~values:2)

(* identity CAS must run read-only here too (same reasoning as Dcas) *)
let test_ucas_identity_storm () =
  Test_support.torture ~trials:80 ~name:"ucas identity storm"
    (Test_support.mk_ucas ~n:3) (fun seed ->
      let prng = Dtc_util.Prng.create (4_000 + seed) in
      Array.init 3 (fun _ ->
          List.init 3 (fun _ ->
              match Dtc_util.Prng.int prng 4 with
              | 0 -> Spec.cas_op (i 0) (i 0)
              | 1 -> Spec.cas_op (i 1) (i 1)
              | 2 -> Spec.cas_op (i 0) (i 1)
              | _ -> Spec.cas_op (i 1) (i 0))))

let test_ucas_unbounded_growth () =
  let footprint ops =
    let machine = Runtime.Machine.create () in
    let u = Baselines.Ucas.create machine ~n:1 ~init:(i 0) in
    let inst = Baselines.Ucas.instance u in
    let workloads =
      [|
        List.concat
          (List.init ops (fun _ ->
               [ Spec.cas_op (i 0) (i 1); Spec.cas_op (i 1) (i 0) ]));
      |]
    in
    let cfg = { Driver.default_config with max_steps = 10_000_000 } in
    let res = Driver.run machine inst ~workloads cfg in
    Alcotest.(check bool) "run completed" false res.incomplete;
    Mem.max_shared_bits (Runtime.Machine.mem machine)
  in
  Alcotest.(check bool) "footprint grows" true (footprint 1000 > footprint 5)

(* --- Plain --- *)

let mk_plain_reg () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Plain.register m ~init:(i 0))

let mk_plain_queue () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Plain.queue m ~capacity:32)

let test_plain_register_crash_free () =
  Test_support.torture ~crash_prob:0.0 ~trials:40 ~name:"plain register"
    mk_plain_reg (fun seed ->
      Workload.register (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:4
        ~values:3)

let test_plain_queue_crash_free () =
  Test_support.torture ~crash_prob:0.0 ~trials:40 ~name:"plain queue"
    mk_plain_queue (fun seed ->
      Workload.queue (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:4
        ~values:4)

let test_plain_counter_crash_free () =
  Test_support.torture ~crash_prob:0.0 ~trials:40 ~name:"plain counter"
    (fun () ->
      let m = Runtime.Machine.create () in
      (m, Baselines.Plain.counter m ~init:0))
    (fun seed ->
      Workload.counter (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:4)

(* Under crashes, plain objects are NOT detectable.  The plain register's
   write is a single primitive step, so the simulation never catches it
   between effect and return — but any multi-step operation exposes the
   window.  The plain queue's enqueue links the node with a CAS several
   steps before returning: crash in between, and the system (with nothing
   announced) must treat the enqueue as failed although a dequeuer can
   already see the element. *)
let test_plain_queue_not_detectable () =
  let out =
    Test_support.crash_points ~mk:mk_plain_queue
      ~workloads:[| [ Spec.enq_op (i 1) ]; [ Spec.deq_op; Spec.deq_op ] |]
      ~schedule:(fun () ->
        Schedule.scripted (List.init 20 (fun _ -> 0)))
      ~policy:Session.Give_up ()
  in
  Alcotest.(check bool) "some crash point violates" true
    (out.Test_support.total_violations > 0)

(* For contrast, the single-step plain register happens to be crash-atomic
   in this simulation: effect and return cannot be separated. *)
let test_plain_register_crash_atomic () =
  let out =
    Test_support.crash_points ~mk:mk_plain_reg
      ~workloads:[| [ Spec.write_op (i 1) ]; [ Spec.read_op ] |]
      ~schedule:(fun () -> Schedule.scripted (List.init 10 (fun _ -> 0)))
      ~policy:Session.Give_up ()
  in
  Alcotest.(check int) "crash-atomic" 0 out.Test_support.total_violations

let suites =
  [
    ( "baselines.urw",
      [
        Alcotest.test_case "sequential" `Quick test_urw_sequential;
        Alcotest.test_case "torture" `Slow test_urw_torture;
        Alcotest.test_case "crash at every step" `Quick
          test_urw_crash_at_every_step;
        Alcotest.test_case "unbounded growth" `Quick test_urw_unbounded_growth;
      ] );
    ( "baselines.ucas",
      [
        Alcotest.test_case "sequential" `Quick test_ucas_sequential;
        Alcotest.test_case "torture" `Slow test_ucas_torture;
        Alcotest.test_case "crash at every step" `Quick
          test_ucas_crash_at_every_step;
        Alcotest.test_case "ABA with crashes" `Slow test_ucas_aba_with_crashes;
        Alcotest.test_case "identity storm" `Slow test_ucas_identity_storm;
        Alcotest.test_case "unbounded growth" `Quick test_ucas_unbounded_growth;
      ] );
    ( "baselines.plain",
      [
        Alcotest.test_case "register crash-free" `Quick
          test_plain_register_crash_free;
        Alcotest.test_case "queue crash-free" `Quick test_plain_queue_crash_free;
        Alcotest.test_case "counter crash-free" `Quick
          test_plain_counter_crash_free;
        Alcotest.test_case "queue not detectable" `Quick
          test_plain_queue_not_detectable;
        Alcotest.test_case "register crash-atomic" `Quick
          test_plain_register_crash_atomic;
      ] );
  ]
