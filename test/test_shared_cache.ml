(* Tests for the shared-cache model (Section 6): the persist-instrumented
   algorithms must survive crashes that lose arbitrary subsets of
   unpersisted cache lines; an uninstrumented algorithm must not. *)

open Nvm
open Runtime
open History
open Sched

let i n = Value.Int n

let torture_shared_cache ~name ~trials mk workloads_of_seed =
  Test_support.torture
    ~fault:(Fault_model.Drop { keep_prob = 0.5 })
    ~trials ~name mk workloads_of_seed

let test_drw_persist () =
  torture_shared_cache ~name:"drw shared-cache" ~trials:100
    (Test_support.mk_drw ~persist:true ~model:Machine.Shared_cache ~n:3)
    (fun seed ->
      Workload.register (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
        ~values:2)

let test_dcas_persist () =
  torture_shared_cache ~name:"dcas shared-cache" ~trials:100
    (Test_support.mk_dcas ~persist:true ~model:Machine.Shared_cache ~n:3)
    (fun seed ->
      Workload.cas (Dtc_util.Prng.create (100 + seed)) ~procs:3 ~ops_per_proc:3
        ~values:2)

let test_dmax_persist () =
  torture_shared_cache ~name:"dmax shared-cache" ~trials:100
    (Test_support.mk_dmax ~persist:true ~model:Machine.Shared_cache ~n:3)
    (fun seed ->
      Workload.max_register (Dtc_util.Prng.create (200 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:5)

let test_transform_persist () =
  torture_shared_cache ~name:"dfaa shared-cache" ~trials:80
    (Test_support.mk_dfaa ~persist:true ~model:Machine.Shared_cache ~n:3)
    (fun seed ->
      Workload.faa (Dtc_util.Prng.create (300 + seed)) ~procs:3 ~ops_per_proc:2
        ~max_delta:3)

let test_dqueue_persist () =
  torture_shared_cache ~name:"dqueue shared-cache" ~trials:80
    (Test_support.mk_dqueue ~persist:true ~model:Machine.Shared_cache ~n:3
       ~capacity:64)
    (fun seed ->
      Workload.queue (Dtc_util.Prng.create (400 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:3)

let test_dprotected_persist () =
  torture_shared_cache ~name:"dprotected shared-cache" ~trials:80
    (fun () ->
      let m = Machine.create ~model:Machine.Shared_cache () in
      ( m,
        Detectable.Dprotected.instance
          (Detectable.Dprotected.create ~persist:true m ~n:3 ~init:0) ))
    (fun seed ->
      Workload.counter (Dtc_util.Prng.create (600 + seed)) ~procs:3
        ~ops_per_proc:2)

let test_ulog_persist () =
  torture_shared_cache ~name:"ulog shared-cache" ~trials:80
    (fun () ->
      let m = Machine.create ~model:Machine.Shared_cache () in
      ( m,
        Detectable.Ulog.instance
          (Detectable.Ulog.create ~persist:true m ~n:3 ~capacity:64
             ~spec:(History.Spec.register (i 0))) ))
    (fun seed ->
      Workload.register (Dtc_util.Prng.create (700 + seed)) ~procs:3
        ~ops_per_proc:2 ~values:2)

(* Exhaustive adversarial write-back: crash at every step of a solo CAS
   with the mask that loses everything. *)
let test_dcas_keep_none_exhaustive () =
  let out =
    Modelcheck.Explore.crash_points
      ~mk:(Test_support.mk_dcas ~persist:true ~model:Machine.Shared_cache ~n:2)
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ~wipe:(Fault_model.Keep (fun _ -> false))
      ()
  in
  Alcotest.(check int) "no violations with keep-none" 0
    out.Modelcheck.Explore.total_violations

(* Without persist instrumentation, the shared-cache model breaks
   detectability: an uninstrumented Drw must violate somewhere when the
   cache is lost wholesale. *)
let test_uninstrumented_drw_breaks () =
  let mk () =
    let m = Machine.create ~model:Machine.Shared_cache () in
    (* note: persist:false — the algorithm runs its private-cache code *)
    (m, Detectable.Drw.instance (Detectable.Drw.create ~persist:false m ~n:2 ~init:(i 0)))
  in
  let out =
    Modelcheck.Explore.crash_points ~mk
      ~workloads:[| [ Spec.write_op (i 1) ]; [ Spec.read_op; Spec.read_op ] |]
      ~schedule:(fun () -> Schedule.scripted (List.init 40 (fun _ -> 0)))
      ~wipe:(Fault_model.Keep (fun _ -> false))
      ~policy:Session.Give_up ()
  in
  Alcotest.(check bool) "uninstrumented algorithm violated" true
    (out.Modelcheck.Explore.total_violations > 0)

(* Persist instructions are no-ops in the private-cache model: the
   instrumented algorithms still pass there. *)
let test_persist_harmless_in_private_cache () =
  Test_support.torture ~trials:40 ~name:"drw persist/private"
    (Test_support.mk_drw ~persist:true ~model:Machine.Private_cache ~n:3)
    (fun seed ->
      Workload.register (Dtc_util.Prng.create (500 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:2)

let suites =
  [
    ( "shared_cache",
      [
        Alcotest.test_case "drw instrumented" `Slow test_drw_persist;
        Alcotest.test_case "dcas instrumented" `Slow test_dcas_persist;
        Alcotest.test_case "dmax instrumented" `Slow test_dmax_persist;
        Alcotest.test_case "dfaa instrumented" `Slow test_transform_persist;
        Alcotest.test_case "dqueue instrumented" `Slow test_dqueue_persist;
        Alcotest.test_case "dprotected instrumented" `Slow
          test_dprotected_persist;
        Alcotest.test_case "ulog instrumented" `Slow test_ulog_persist;
        Alcotest.test_case "dcas keep-none exhaustive" `Quick
          test_dcas_keep_none_exhaustive;
        Alcotest.test_case "uninstrumented drw breaks" `Quick
          test_uninstrumented_drw_breaks;
        Alcotest.test_case "persist harmless in private cache" `Quick
          test_persist_harmless_in_private_cache;
      ] );
  ]
