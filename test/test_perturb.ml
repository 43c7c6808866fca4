(* Tests for the perturbation framework: Definition 3 machinery, the
   paper's witnesses (Lemmas 3, 5-8), the max-register non-witness
   (Lemma 4), and the Theorem 2 adversary. *)

open Nvm
open History

let i n = Value.Int n

let test_is_perturbing_register () =
  let spec = Spec.register (i 0) in
  Alcotest.(check bool) "write perturbs read" true
    (Perturb.Perturbing.is_perturbing spec ~history:[]
       ~op:(Spec.write_op (i 1)) ~wrt:Spec.read_op);
  Alcotest.(check bool) "write of current value does not" false
    (Perturb.Perturbing.is_perturbing spec ~history:[]
       ~op:(Spec.write_op (i 0)) ~wrt:Spec.read_op);
  Alcotest.(check bool) "read never perturbs" false
    (Perturb.Perturbing.is_perturbing spec ~history:[] ~op:Spec.read_op
       ~wrt:Spec.read_op)

let test_all_witnesses_verify () =
  List.iter
    (fun (e : Perturb.Witnesses.entry) ->
      match Perturb.Perturbing.verify_witness e.spec e.witness with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" e.obj_name msg)
    Perturb.Witnesses.all

let test_witness_count () =
  (* register, counter, bounded counter, cas, faa, queue, swap, tas *)
  Alcotest.(check int) "eight witnesses" 8 (List.length Perturb.Witnesses.all)

let test_broken_witness_rejected () =
  let spec = Spec.register (i 0) in
  (* writing the initial value perturbs nothing *)
  let bogus =
    {
      Perturb.Perturbing.h1 = [];
      op_p = Spec.write_op (i 0);
      wrt1 = Spec.read_op;
      ext = [];
      wrt2 = Spec.read_op;
    }
  in
  match Perturb.Perturbing.verify_witness spec bogus with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bogus witness accepted"

let test_condition2_rejected () =
  let spec = Spec.max_register 0 in
  (* write_max 5 perturbs a read after the empty history (condition 1),
     but no extension makes a second write_max 5 perturbing again *)
  let w =
    {
      Perturb.Perturbing.h1 = [];
      op_p = Spec.write_max_op 5;
      wrt1 = Spec.read_op;
      ext = [];
      wrt2 = Spec.read_op;
    }
  in
  match Perturb.Perturbing.verify_witness spec w with
  | Error msg ->
      Alcotest.(check bool) "fails on condition 2" true
        (String.length msg > 0)
  | Ok () -> Alcotest.fail "max register witness accepted"

let test_max_register_no_witness () =
  let alphabet = [ Spec.read_op; Spec.write_max_op 1; Spec.write_max_op 2 ] in
  Alcotest.(check bool) "Lemma 4" true
    (Perturb.Witnesses.max_register_has_no_witness ~alphabet ~max_h1:2
       ~max_ext:2)

let test_search_finds_register_witness () =
  let spec = Spec.register (i 0) in
  let alphabet = [ Spec.read_op; Spec.write_op (i 0); Spec.write_op (i 1) ] in
  match Perturb.Perturbing.search spec ~alphabet ~max_h1:1 ~max_ext:1 with
  | Some w -> (
      match Perturb.Perturbing.verify_witness spec w with
      | Ok () -> ()
      | Error m -> Alcotest.failf "search returned invalid witness: %s" m)
  | None -> Alcotest.fail "no witness found for the register"

let test_search_finds_queue_witness () =
  let spec = Spec.fifo_queue () in
  let alphabet = [ Spec.enq_op (i 0); Spec.enq_op (i 1); Spec.deq_op ] in
  match Perturb.Perturbing.search spec ~alphabet ~max_h1:2 ~max_ext:2 with
  | Some w -> (
      match Perturb.Perturbing.verify_witness spec w with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid queue witness: %s" m)
  | None -> Alcotest.fail "no witness found for the queue"

(* Bounded counter: doubly-perturbing but not perturbable — once
   saturated, inc perturbs nothing. *)
let test_bounded_counter_saturates () =
  let spec = Spec.bounded_counter ~lo:0 ~hi:2 0 in
  Alcotest.(check bool) "perturbs when fresh" true
    (Perturb.Perturbing.is_perturbing spec ~history:[] ~op:Spec.inc_op
       ~wrt:Spec.read_op);
  Alcotest.(check bool) "saturated: no longer perturbing" false
    (Perturb.Perturbing.is_perturbing spec
       ~history:[ Spec.inc_op; Spec.inc_op ]
       ~op:Spec.inc_op ~wrt:Spec.read_op)

(* --- the Theorem 2 adversary --- *)

let test_adversary_kills_no_aux () =
  let e = Perturb.Witnesses.register in
  List.iter
    (fun mk ->
      let reports =
        Perturb.Adversary.attack ~mk ~workloads:e.attack ~switch_budget:2 ()
      in
      Alcotest.(check bool) "violated" false (Perturb.Adversary.survives reports))
    [
      (fun () ->
        let m = Runtime.Machine.create () in
        (m, Baselines.Broken.rw_no_aux_refail m ~n:2 ~init:(i 0)));
      (fun () ->
        let m = Runtime.Machine.create () in
        (m, Baselines.Broken.rw_no_aux_reexec m ~n:2 ~init:(i 0)));
    ]

let test_adversary_spares_aux_state_algorithms () =
  let e = Perturb.Witnesses.register in
  List.iter
    (fun mk ->
      let reports =
        Perturb.Adversary.attack ~mk ~workloads:e.attack ~switch_budget:2 ()
      in
      Alcotest.(check bool) "survives" true (Perturb.Adversary.survives reports))
    [
      (fun () -> Test_support.mk_drw ~n:2 ());
      (fun () -> Test_support.mk_urw ~n:2 ());
    ]

let test_adversary_cas_witness () =
  let e = Perturb.Witnesses.cas in
  let reports =
    Perturb.Adversary.attack
      ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
      ~workloads:e.attack ~switch_budget:2 ()
  in
  Alcotest.(check bool) "dcas survives its own witness attack" true
    (Perturb.Adversary.survives reports)

let test_adversary_spares_max_register () =
  (* max register: not doubly-perturbing, so its aux-state-free recovery
     is immune by Lemma 4 — the attack must come back clean *)
  let wl =
    [| [ Spec.write_max_op 1 ]; [ Spec.read_op; Spec.write_max_op 2; Spec.read_op ] |]
  in
  let reports =
    Perturb.Adversary.attack
      ~mk:(fun () -> Test_support.mk_dmax ~n:2 ())
      ~workloads:wl ~switch_budget:2 ()
  in
  Alcotest.(check bool) "dmax survives without aux state" true
    (Perturb.Adversary.survives reports)

let test_adversary_queue_witness () =
  (* queue operations are long, so full delay-bounded exploration of the
     queue witness explodes; a crash-point sweep over several fixed
     interleavings covers every crash placement at linear cost *)
  let e = Perturb.Witnesses.queue in
  let schedules =
    [
      (fun () -> Sched.Schedule.round_robin ());
      (fun () -> Sched.Schedule.scripted (List.init 200 (fun _ -> 0)));
      (fun () -> Sched.Schedule.scripted (List.init 200 (fun _ -> 1)));
      (fun () ->
        Sched.Schedule.scripted
          (List.concat (List.init 50 (fun _ -> [ 0; 0; 0; 1 ]))));
    ]
  in
  List.iter
    (fun schedule ->
      List.iter
        (fun policy ->
          let out =
            Test_support.crash_points
              ~mk:(fun () -> Test_support.mk_dqueue ~n:2 ~capacity:16 ())
              ~workloads:e.attack ~schedule ~policy ()
          in
          Alcotest.(check int) "dqueue survives" 0
            out.Test_support.total_violations)
        [ Sched.Session.Retry; Sched.Session.Give_up ])
    schedules

let suites =
  [
    ( "perturb.definitions",
      [
        Alcotest.test_case "is_perturbing" `Quick test_is_perturbing_register;
        Alcotest.test_case "all witnesses verify (Lemmas 3,5-8)" `Quick
          test_all_witnesses_verify;
        Alcotest.test_case "witness inventory" `Quick test_witness_count;
        Alcotest.test_case "bogus witness rejected" `Quick
          test_broken_witness_rejected;
        Alcotest.test_case "condition 2 enforced" `Quick test_condition2_rejected;
        Alcotest.test_case "max register: no witness (Lemma 4)" `Quick
          test_max_register_no_witness;
        Alcotest.test_case "search finds register witness" `Quick
          test_search_finds_register_witness;
        Alcotest.test_case "search finds queue witness" `Quick
          test_search_finds_queue_witness;
        Alcotest.test_case "bounded counter saturates" `Quick
          test_bounded_counter_saturates;
      ] );
    ( "perturb.adversary",
      [
        Alcotest.test_case "kills no-aux implementations (Thm 2)" `Quick
          test_adversary_kills_no_aux;
        Alcotest.test_case "spares aux-state algorithms" `Quick
          test_adversary_spares_aux_state_algorithms;
        Alcotest.test_case "dcas survives cas-witness attack" `Slow
          test_adversary_cas_witness;
        Alcotest.test_case "max register immune (Lemma 4)" `Quick
          test_adversary_spares_max_register;
        Alcotest.test_case "dqueue survives queue-witness attack" `Slow
          test_adversary_queue_witness;
      ] );
  ]
