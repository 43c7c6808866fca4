(* Tests for the counterexample minimiser. *)

open Nvm
open History

let i n = Value.Int n

let mk_no_vec () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.dcas_no_vec m ~n:2 ~init:(i 0))

let workloads = [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]

let find_violation () =
  let out =
    Modelcheck.Explore.explore ~mk:mk_no_vec ~workloads
      Modelcheck.Explore.default_config
  in
  match out.Modelcheck.Explore.violations with
  | v :: _ -> v
  | [] -> Alcotest.fail "expected the ablation to violate"

let test_minimise_shrinks () =
  let v = find_violation () in
  match
    Sched.Shrink.minimise ~mk:mk_no_vec ~workloads
      v.Modelcheck.Explore.decisions
  with
  | None -> Alcotest.fail "original violation did not reproduce"
  | Some r ->
      Alcotest.(check bool) "no longer than the original" true
        (List.length r.Sched.Shrink.decisions
        <= List.length v.Modelcheck.Explore.decisions);
      Alcotest.(check bool) "still mentions a violation" true
        (String.length r.Sched.Shrink.msg > 0);
      (* 1-minimality: deleting any single remaining decision loses the
         violation *)
      let n = List.length r.Sched.Shrink.decisions in
      for k = 0 to n - 1 do
        let candidate =
          List.filteri (fun idx _ -> idx <> k) r.Sched.Shrink.decisions
        in
        match Sched.Shrink.reproduces ~mk:mk_no_vec ~workloads candidate with
        | Some _ -> Alcotest.failf "deleting decision %d still violates" k
        | None -> ()
      done

let test_minimised_still_reproduces () =
  let v = find_violation () in
  match
    Sched.Shrink.minimise ~mk:mk_no_vec ~workloads
      v.Modelcheck.Explore.decisions
  with
  | None -> Alcotest.fail "did not reproduce"
  | Some r -> (
      match
        Sched.Shrink.reproduces ~mk:mk_no_vec ~workloads
          r.Sched.Shrink.decisions
      with
      | Some _ -> ()
      | None -> Alcotest.fail "minimised sequence does not reproduce")

let test_reproduces_none_for_correct_object () =
  (* an arbitrary schedule against the real Dcas yields no violation *)
  let mk () = Test_support.mk_dcas ~n:2 () in
  let decisions = Sched.Decision.[ Step 0; Step 1; Crash; Step 0; Step 1 ] in
  match Sched.Shrink.reproduces ~mk ~workloads decisions with
  | None -> ()
  | Some (_, msg) -> Alcotest.failf "unexpected violation: %s" msg

let test_minimise_none_for_correct_object () =
  let mk () = Test_support.mk_dcas ~n:2 () in
  match Sched.Shrink.minimise ~mk ~workloads [ Sched.Decision.Crash ] with
  | None -> ()
  | Some _ -> Alcotest.fail "minimise invented a violation"

let test_tolerant_replay_skips_dead_steps () =
  (* steps of finished processes are skipped, not errors *)
  let mk () = Test_support.mk_dcas ~n:2 () in
  let decisions = List.init 200 (fun _ -> Sched.Decision.Step 0) in
  match Sched.Shrink.reproduces ~mk ~workloads decisions with
  | None -> ()
  | Some (_, msg) -> Alcotest.failf "unexpected violation: %s" msg

let test_matches_reference () =
  (* the undo-session shrinker must return exactly what plain greedy
     single deletion over [reproduces] returns, for every sampled
     violation of the ablation *)
  let out =
    Modelcheck.Explore.explore ~mk:mk_no_vec ~workloads
      Modelcheck.Explore.default_config
  in
  Alcotest.(check bool) "violations sampled" true
    (out.Modelcheck.Explore.violations <> []);
  List.iter
    (fun (v : Modelcheck.Explore.violation) ->
      match
        ( Sched.Shrink.minimise ~mk:mk_no_vec ~workloads v.decisions,
          Ref_modelcheck.minimise ~mk:mk_no_vec ~workloads v.decisions )
      with
      | Some r, Some (ds, (history, msg)) ->
          Alcotest.(check bool) "same minimised decisions" true
            (r.Sched.Shrink.decisions = ds);
          Alcotest.(check string) "same message" msg r.Sched.Shrink.msg;
          Alcotest.(check bool) "same history" true
            (r.Sched.Shrink.history = history)
      | _ -> Alcotest.fail "shrinker and reference disagree on reproducibility")
    out.Modelcheck.Explore.violations

let test_undo_refuses_non_repro () =
  (* a longer interleaving with a mid-run crash: the undo session must
     still judge the whole sequence clean before it shrinks anything *)
  let mk () = Test_support.mk_dcas ~n:2 () in
  match
    Sched.Shrink.minimise ~mk ~workloads
      Sched.Decision.[ Step 0; Step 1; Crash; Step 0; Step 1 ]
  with
  | None -> ()
  | Some _ -> Alcotest.fail "undo minimise invented a violation"

let suites =
  [
    ( "modelcheck.shrink",
      [
        Alcotest.test_case "minimise shrinks to 1-minimal" `Quick
          test_minimise_shrinks;
        Alcotest.test_case "minimised reproduces" `Quick
          test_minimised_still_reproduces;
        Alcotest.test_case "no violation for correct object" `Quick
          test_reproduces_none_for_correct_object;
        Alcotest.test_case "minimise refuses non-repro" `Quick
          test_minimise_none_for_correct_object;
        Alcotest.test_case "tolerant replay" `Quick
          test_tolerant_replay_skips_dead_steps;
        Alcotest.test_case "matches reference shrinker" `Quick
          test_matches_reference;
        Alcotest.test_case "undo refuses non-repro" `Quick
          test_undo_refuses_non_repro;
      ] );
  ]
