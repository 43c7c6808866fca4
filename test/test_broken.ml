(* Tests for the broken ablations: each deleted mechanism must produce a
   detectable violation — this is the sanity check that the whole oracle
   chain (driver → history → checker) can actually catch bugs. *)

open Nvm
open History
open Sched

let i n = Value.Int n

let mk_refail () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.rw_no_aux_refail m ~n:2 ~init:(i 0))

let mk_reexec () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.rw_no_aux_reexec m ~n:2 ~init:(i 0))

let mk_no_toggle ?(n = 3) () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.drw_no_toggle m ~n ~init:(i 0))

let mk_no_vec () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.dcas_no_vec m ~n:2 ~init:(i 0))

(* Figure 2 workload: p writes, q reads around q's own write. *)
let fig2_workload =
  [| [ Spec.write_op (i 1) ]; [ Spec.read_op; Spec.write_op (i 0); Spec.read_op ] |]

let test_refail_violates () =
  (* the fail verdict denies a write a concurrent read already saw *)
  let out =
    Sched.Driver.crash_points ~mk:mk_refail ~workloads:fig2_workload
      ~schedule:(fun () -> Schedule.scripted (List.init 40 (fun _ -> 0)))
      ~policy:Session.Give_up ()
  in
  Alcotest.(check bool) "violation found" true
    (out.Sched.Driver.total_violations > 0);
  (* pinned: the crash-free run plus 24 crash points, one of which violates *)
  Alcotest.(check (triple int int int)) "executions, truncated, violations"
    (25, 0, 1)
    Sched.Driver.(out.executions, out.truncated, out.total_violations)

let test_reexec_violates () =
  (* re-execution gives the write two linearization points around q's
     write — the Figure 2 execution *)
  let cfg =
    { Modelcheck.Explore.default_config with switch_budget = 2 }
  in
  let out = Modelcheck.Explore.explore ~mk:mk_reexec ~workloads:fig2_workload cfg in
  Alcotest.(check bool) "violation found" true
    (out.Modelcheck.Explore.total_violations > 0)

(* The same attacks leave the real algorithms intact. *)
let test_real_drw_survives_both () =
  let mk () = Test_support.mk_drw ~n:2 () in
  let out1 =
    Sched.Driver.crash_points ~mk ~workloads:fig2_workload
      ~schedule:(fun () -> Schedule.scripted (List.init 40 (fun _ -> 0)))
      ~policy:Session.Give_up ()
  in
  Alcotest.(check int) "crash_points clean" 0
    out1.Sched.Driver.total_violations;
  let cfg = { Modelcheck.Explore.default_config with switch_budget = 2 } in
  let out2 = Modelcheck.Explore.explore ~mk ~workloads:fig2_workload cfg in
  Alcotest.(check int) "explore clean" 0 out2.Modelcheck.Explore.total_violations

(* ABA kills the toggle-free Algorithm 1: q re-installs the very value p
   read, p's recovery wrongly concludes its write never happened, but a
   reader observed it.  E6's directed script drives the scenario,
   guided by the observed register contents rather than hard-coded step
   counts; the real Algorithm 1 runs the identical script and survives. *)
let test_no_toggle_violates () =
  match Experiments.E6_torture.aba_directed ~mk:(mk_no_toggle ~n:3) with
  | Lin_check.Violation _ -> ()
  | Lin_check.Ok_linearizable _ ->
      Alcotest.fail "toggle-free ablation survived the ABA script"

let test_real_drw_survives_aba () =
  match Experiments.E6_torture.aba_directed ~mk:(Test_support.mk_drw ~n:3) with
  | Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation msg -> Alcotest.failf "real drw violated: %s" msg

(* The vec-free Algorithm 2 guesses wrong in both directions. *)
let test_no_vec_violates () =
  let workloads =
    [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]
  in
  let cfg =
    { Modelcheck.Explore.default_config with switch_budget = 3 }
  in
  let out = Modelcheck.Explore.explore ~mk:mk_no_vec ~workloads cfg in
  Alcotest.(check bool) "violation found" true
    (out.Modelcheck.Explore.total_violations > 0)

let test_real_dcas_survives () =
  let workloads =
    [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]
  in
  let cfg = { Modelcheck.Explore.default_config with switch_budget = 3 } in
  let out =
    Modelcheck.Explore.explore
      ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
      ~workloads cfg
  in
  Alcotest.(check int) "clean" 0 out.Modelcheck.Explore.total_violations

let suites =
  [
    ( "baselines.broken",
      [
        Alcotest.test_case "no-aux refail violates (Thm 2)" `Quick
          test_refail_violates;
        Alcotest.test_case "no-aux reexec violates (Thm 2)" `Quick
          test_reexec_violates;
        Alcotest.test_case "real drw survives the same attacks" `Quick
          test_real_drw_survives_both;
        Alcotest.test_case "no-toggle violates (ABA)" `Slow
          test_no_toggle_violates;
        Alcotest.test_case "real drw survives ABA" `Slow
          test_real_drw_survives_aba;
        Alcotest.test_case "no-vec violates" `Quick test_no_vec_violates;
        Alcotest.test_case "real dcas survives" `Quick test_real_dcas_survives;
      ] );
  ]
