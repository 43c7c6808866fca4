(* Tests for object composition: the Section 6 composability claim made
   executable.  A composite of detectable objects is itself a detectable
   object, checked against the product specification. *)

open Nvm
open History
open Sched

let i n = Value.Int n
let v = Test_support.value_testable

let mk_pair ?(n = 3) () =
  let m = Runtime.Machine.create () in
  let acct = Detectable.Dcas.instance (Detectable.Dcas.create m ~n ~init:(i 0)) in
  let log =
    Detectable.Dqueue.instance (Detectable.Dqueue.create m ~n ~capacity:64)
  in
  (m, Compose.combine [ ("acct", acct); ("log", log) ])

let mk_regs ?(n = 3) () =
  let m = Runtime.Machine.create () in
  let a = Detectable.Drw.instance (Detectable.Drw.create m ~n ~init:(i 0)) in
  let b = Detectable.Drw.instance (Detectable.Drw.create m ~n ~init:(i 0)) in
  (m, Compose.combine [ ("a", a); ("b", b) ])

let lift = Compose.lift

let test_product_spec () =
  let spec =
    Compose.product_spec
      [ ("a", Spec.register (i 0)); ("b", Spec.counter 0) ]
  in
  let responses =
    Oracle.run_spec spec
      [
        lift "a" (Spec.write_op (i 5));
        lift "b" Spec.inc_op;
        lift "a" Spec.read_op;
        lift "b" Spec.read_op;
      ]
  in
  Alcotest.(check (list v)) "responses" [ Spec.ack; Spec.ack; i 5; i 1 ] responses

let test_product_spec_unknown_component () =
  let spec = Compose.product_spec [ ("a", Spec.register (i 0)) ] in
  (match Oracle.run_spec spec [ lift "zz" Spec.read_op ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown component accepted");
  match Oracle.run_spec spec [ Spec.read_op ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unprefixed op accepted"

let test_combine_validation () =
  let m = Runtime.Machine.create () in
  let a = Detectable.Dcas.instance (Detectable.Dcas.create m ~n:1 ~init:(i 0)) in
  (match Compose.combine [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty composite accepted");
  (match Compose.combine [ ("x", a); ("x", a) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate names accepted");
  match Compose.combine [ ("x/y", a) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "name with separator accepted"

let test_sequential_composite () =
  let _, _, responses =
    Test_support.solo_run (mk_pair ~n:1)
      [
        lift "acct" (Spec.cas_op (i 0) (i 5));
        lift "log" (Spec.enq_op (i 100));
        lift "acct" Spec.read_op;
        lift "log" Spec.deq_op;
      ]
  in
  Alcotest.(check (list v)) "responses"
    [ Value.Bool true; Spec.ack; i 5; i 100 ]
    responses

let composite_workload base seed =
  let prng = Dtc_util.Prng.create (base + seed) in
  Array.init 3 (fun _ ->
      List.init 3 (fun _ ->
          if Dtc_util.Prng.bool prng then
            if Dtc_util.Prng.bool prng then
              lift "acct"
                (Spec.cas_op
                   (i (Dtc_util.Prng.int prng 2))
                   (i (Dtc_util.Prng.int prng 2)))
            else lift "acct" Spec.read_op
          else if Dtc_util.Prng.bool prng then
            lift "log" (Spec.enq_op (i (Dtc_util.Prng.int prng 5)))
          else lift "log" Spec.deq_op))

let test_composite_torture () =
  Test_support.torture ~trials:100 ~name:"composite torture" (mk_pair ~n:3)
    (composite_workload 0)

let test_composite_torture_giveup () =
  Test_support.torture ~policy:Session.Give_up ~trials:100
    ~name:"composite torture/giveup" (mk_pair ~n:3) (composite_workload 5_000)

let test_composite_crash_at_every_step () =
  let out =
    Test_support.crash_points ~mk:(mk_pair ~n:2)
      ~workloads:
        [|
          [ lift "acct" (Spec.cas_op (i 0) (i 1)); lift "log" (Spec.enq_op (i 9)) ];
          [ lift "log" Spec.deq_op; lift "acct" Spec.read_op ];
        |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  Alcotest.(check int) "no violations" 0 out.Test_support.total_violations

(* recovery resolves exactly the component that was in flight *)
let test_recovery_routes_to_component () =
  for k = 1 to 16 do
    let machine, inst = mk_regs ~n:2 () in
    let cfg =
      { Driver.default_config with crash_plan = Crash_plan.at_steps [ k ] }
    in
    let res =
      Driver.run machine inst
        ~workloads:
          [|
            [ lift "a" (Spec.write_op (i 1)); lift "b" (Spec.write_op (i 2)) ];
            [ lift "b" Spec.read_op; lift "a" Spec.read_op ];
          |]
        cfg
    in
    Test_support.assert_ok inst res ~ctx:(Printf.sprintf "crash at %d" k)
  done

let test_composite_pending_lifts () =
  let machine, inst = mk_regs ~n:1 () in
  let session =
    Session.create machine inst ~workloads:[| [ lift "b" (Spec.write_op (i 3)) ] |]
  in
  (* run through the announcement (3 writes) so the op is committed *)
  Session.step session 0;
  Session.step session 0;
  Session.step session 0;
  (match inst.Obj_inst.pending ~pid:0 with
  | Some op -> Alcotest.(check string) "prefixed" "b/write" op.Spec.name
  | None -> Alcotest.fail "expected pending op");
  (* drain *)
  let rec drain () =
    match Session.runnable session with
    | [] -> ()
    | pid :: _ ->
        Session.step session pid;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "cleared" true (inst.Obj_inst.pending ~pid:0 = None)

let prop_composite_durable_linearizable =
  QCheck.Test.make ~name:"composite: DL + detectability under random crashes"
    ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let inst, res =
        Test_support.run_one ~seed ~max_steps:50_000 (mk_pair ~n:3)
          (composite_workload 9_000 seed)
      in
      (not res.Driver.incomplete)
      && res.Driver.anomalies = []
      && Lin_check.is_ok (Driver.check inst res))

let suites =
  [
    ( "detectable.compose",
      [
        Alcotest.test_case "product spec" `Quick test_product_spec;
        Alcotest.test_case "product spec validation" `Quick
          test_product_spec_unknown_component;
        Alcotest.test_case "combine validation" `Quick test_combine_validation;
        Alcotest.test_case "sequential composite" `Quick
          test_sequential_composite;
        Alcotest.test_case "composite torture" `Slow test_composite_torture;
        Alcotest.test_case "composite torture (giveup)" `Slow
          test_composite_torture_giveup;
        Alcotest.test_case "crash at every step" `Quick
          test_composite_crash_at_every_step;
        Alcotest.test_case "recovery routes to component" `Quick
          test_recovery_routes_to_component;
        Alcotest.test_case "pending lifts prefix" `Quick
          test_composite_pending_lifts;
        QCheck_alcotest.to_alcotest prop_composite_durable_linearizable;
      ] );
  ]
