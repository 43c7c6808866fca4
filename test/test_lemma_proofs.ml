(* The case analyses of the paper's Lemma 1 (Algorithm 1) and Lemma 2
   (Algorithm 2), each branch driven as a deterministic scripted scenario
   with state inspection.  These tests document *why* the algorithms are
   correct, branch by branch, in executable form. *)

open Nvm
open Runtime
open History
open Sched

let i n = Value.Int n

let find_loc machine name =
  let mem = Machine.mem machine in
  let rec go k =
    if k >= Mem.n_locs mem then Alcotest.failf "no location named %s" name
    else
      let loc = Mem.loc_by_id mem k in
      if loc.Loc.name = name then loc else go (k + 1)
  in
  go 0

let step_until session pid pred ~ctx =
  let guard = ref 0 in
  while not (pred ()) do
    incr guard;
    if !guard > 5_000 then Alcotest.failf "%s: script did not converge" ctx;
    Session.step session pid
  done

(* finish the run lowest runnable pid first, at most 20 000 more steps *)
let drain session =
  let r =
    Driver.run_session session ~schedule:(Schedule.scripted [])
      ~crash_plan:Crash_plan.none ~max_steps:(Session.steps session + 20_000)
  in
  if r.Driver.incomplete then Alcotest.fail "drain did not converge"

let verdict session (inst : Obj_inst.t) =
  match Driver.anomaly_verdict (Session.anomalies session) with
  | Some v -> v
  | None -> Lin_check.check inst.Obj_inst.spec (Session.history session)

let assert_consistent session inst ~ctx =
  match verdict session inst with
  | Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation m -> Alcotest.failf "%s: %s" ctx m

let outcome_of session uid =
  List.fold_left
    (fun acc e ->
      match (e : Event.t) with
      | Event.Ret { uid = u; v; _ } when u = uid -> `Ret v :: acc
      | Event.Rec_ret { uid = u; v; _ } when u = uid -> `Rec v :: acc
      | Event.Rec_fail { uid = u; _ } when u = uid -> `Fail :: acc
      | _ -> acc)
    [] (Session.history session)

(* ----------------------------------------------------------------- *)
(* Lemma 1 — Algorithm 1's Write *)

(* Case "crash before CP := 1": the write took no observable step, so the
   recovery must return fail. *)
let test_l1_crash_before_cp1 () =
  (* p0's write: announce is 3 steps; the body performs read R, clear
     toggle, read T, write RD, re-read R — five more steps before CP:=1.
     Crash at each of those points and check the fail verdict. *)
  for k = 1 to 8 do
    let machine, inst = Test_support.mk_drw ~n:2 () in
    let session =
      Session.create ~policy:Session.Give_up machine inst
        ~workloads:[| [ Spec.write_op (i 7) ]; [] |]
    in
    let cp = find_loc machine "Ann.cp" in
    for _ = 1 to k do
      if Session.runnable session <> [] then Session.step session 0
    done;
    (* only crash if CP is still 0 (we are before line 6) *)
    if Value.equal (Machine.peek machine cp) (i 0) then begin
      Session.crash session Fault_model.keep_all;
      drain session;
      assert_consistent session inst ~ctx:(Printf.sprintf "k=%d" k);
      let r = find_loc machine "R" in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: R untouched" k)
        true
        (Value.equal (Value.nth (Machine.peek machine r) 0) (i 0));
      match outcome_of session 0 with
      | [ `Fail ] -> ()
      | _ -> Alcotest.failf "k=%d: expected a single fail verdict" k
    end
  done

(* Case "crash after the write to R, before CP := 2": claim 2 of the
   proof — recovery must detect the write happened and complete with
   ack. *)
let test_l1_crash_after_r_write () =
  let machine, inst = Test_support.mk_drw ~n:2 () in
  let session =
    Session.create ~policy:Session.Give_up machine inst
      ~workloads:[| [ Spec.write_op (i 7) ]; [] |]
  in
  let r = find_loc machine "R" in
  let cp = find_loc machine "Ann.cp" in
  step_until session 0 ~ctx:"R written" (fun () ->
      Value.equal (Value.nth (Machine.peek machine r) 0) (i 7));
  (* we are past line 7 but before line 8 *)
  Alcotest.(check bool) "CP = 1" true
    (Value.equal (Machine.peek machine cp) (i 1));
  Session.crash session Fault_model.keep_all;
  drain session;
  assert_consistent session inst ~ctx:"after-R crash";
  match outcome_of session 0 with
  | [ `Rec v ] -> Alcotest.check Test_support.value_testable "ack" Spec.ack v
  | _ -> Alcotest.fail "expected recovery to complete the write"

(* Case "crash between CP:=1 and the write to R": R unchanged and p's
   toggle bit still lowered — line 20's condition holds and recovery
   answers fail. *)
let test_l1_crash_between_cp1_and_write () =
  let machine, inst = Test_support.mk_drw ~n:2 () in
  let session =
    Session.create ~policy:Session.Give_up machine inst
      ~workloads:[| [ Spec.write_op (i 7) ]; [] |]
  in
  let r = find_loc machine "R" in
  let cp = find_loc machine "Ann.cp" in
  step_until session 0 ~ctx:"CP reaches 1" (fun () ->
      Value.equal (Machine.peek machine cp) (i 1));
  (* line 6 executed, line 7 not yet *)
  Alcotest.(check bool) "R not yet written" true
    (Value.equal (Value.nth (Machine.peek machine r) 0) (i 0));
  Session.crash session Fault_model.keep_all;
  drain session;
  assert_consistent session inst ~ctx:"cp1 crash";
  match outcome_of session 0 with
  | [ `Fail ] -> ()
  | _ -> Alcotest.fail "expected fail (R never written)"

(* Case "line 5 sees interference": p never writes R, yet its write
   linearizes immediately before the interfering write — it completes
   with ack and the history stays consistent. *)
let test_l1_overwritten_by_concurrent_write () =
  let machine, inst = Test_support.mk_drw ~n:2 () in
  let session =
    Session.create machine inst
      ~workloads:[| [ Spec.write_op (i 7) ]; [ Spec.write_op (i 5) ] |]
  in
  let r = find_loc machine "R" in
  (* p0 runs exactly through its first read of R (announce 3 + read 1) *)
  for _ = 1 to 4 do
    Session.step session 0
  done;
  (* p1 completes its whole write: R now holds 5 *)
  step_until session 1 ~ctx:"p1 writes" (fun () ->
      Value.equal (Value.nth (Machine.peek machine r) 0) (i 5));
  while List.mem 1 (Session.runnable session) do
    Session.step session 1
  done;
  (* p0 resumes: its line-5 re-read differs, so it must skip its own
     write to R and still complete *)
  drain session;
  assert_consistent session inst ~ctx:"overwritten write";
  Alcotest.(check bool) "p0 never wrote R" true
    (Value.equal (Value.nth (Machine.peek machine r) 0) (i 5));
  match outcome_of session 0 with
  | [ `Ret v ] -> Alcotest.check Test_support.value_testable "ack" Spec.ack v
  | _ -> Alcotest.fail "expected normal completion"

(* ----------------------------------------------------------------- *)
(* Lemma 2 — Algorithm 2's CAS *)

(* Case "val ≠ old": the CAS fails without touching vec. *)
let test_l2_value_mismatch () =
  let machine, inst = Test_support.mk_dcas ~n:2 () in
  let session =
    Session.create machine inst ~workloads:[| [ Spec.cas_op (i 9) (i 1) ]; [] |]
  in
  let c = find_loc machine "C" in
  let vec_before = Value.nth (Machine.peek machine c) 1 in
  drain session;
  assert_consistent session inst ~ctx:"mismatch";
  Alcotest.(check Test_support.value_testable)
    "vec untouched" vec_before
    (Value.nth (Machine.peek machine c) 1);
  match outcome_of session 0 with
  | [ `Ret (Value.Bool false) ] -> ()
  | _ -> Alcotest.fail "expected false"

(* Case "crash before CP := 1": fail. *)
let test_l2_crash_before_cp1 () =
  for k = 1 to 5 do
    let machine, inst = Test_support.mk_dcas ~n:2 () in
    let session =
      Session.create ~policy:Session.Give_up machine inst
        ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [] |]
    in
    let cp = find_loc machine "Ann.cp" in
    for _ = 1 to k do
      if Session.runnable session <> [] then Session.step session 0
    done;
    if Value.equal (Machine.peek machine cp) (i 0) then begin
      Session.crash session Fault_model.keep_all;
      drain session;
      assert_consistent session inst ~ctx:(Printf.sprintf "k=%d" k);
      match outcome_of session 0 with
      | [ `Fail ] -> ()
      | _ -> Alcotest.failf "k=%d: expected fail" k
    end
  done

(* Case "crash after a successful CAS, before the response persists":
   vec[p] equals RD_p, so recovery answers true. *)
let test_l2_crash_after_successful_cas () =
  let machine, inst = Test_support.mk_dcas ~n:2 () in
  let session =
    Session.create ~policy:Session.Give_up machine inst
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [] |]
  in
  let c = find_loc machine "C" in
  step_until session 0 ~ctx:"CAS lands" (fun () ->
      Value.equal (Value.nth (Machine.peek machine c) 0) (i 1));
  Session.crash session Fault_model.keep_all;
  drain session;
  assert_consistent session inst ~ctx:"post-CAS crash";
  (match outcome_of session 0 with
  | [ `Rec (Value.Bool true) ] -> ()
  | _ -> Alcotest.fail "expected recovered true");
  (* the flip bit stays flipped until p's next successful CAS *)
  let vec = Value.nth (Machine.peek machine c) 1 in
  Alcotest.(check bool) "vec[0] flipped" true (Value.to_bool (Value.nth vec 0))

(* Case "the CAS attempt failed because of interference": p crashed at
   CP = 1 with its primitive CAS defeated — vec[p] differs from RD_p and
   recovery answers fail. *)
let test_l2_interfered_cas_recovers_fail () =
  let machine, inst = Test_support.mk_dcas ~n:2 () in
  let session =
    Session.create ~policy:Session.Give_up machine inst
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 0) (i 2) ] |]
  in
  let c = find_loc machine "C" in
  let cp = find_loc machine "Ann.cp" in
  (* p0 runs up to CP := 1 (its primitive CAS is next) *)
  step_until session 0 ~ctx:"p0 at CP=1" (fun () ->
      Value.equal (Machine.peek machine cp) (i 1));
  (* p1 wins the race: C becomes 2 *)
  step_until session 1 ~ctx:"p1 wins" (fun () ->
      Value.equal (Value.nth (Machine.peek machine c) 0) (i 2));
  (* p0's CAS executes and fails *)
  Session.step session 0;
  Session.crash session Fault_model.keep_all;
  drain session;
  assert_consistent session inst ~ctx:"interfered CAS";
  match outcome_of session 0 with
  | [ `Fail ] -> ()
  | o ->
      Alcotest.failf "expected fail, got %d outcomes" (List.length o)

(* The flip-bit observation the proof leans on: "each successful CAS to C
   by p will flip the bit vec[p], and it will remain flipped until p's
   next successful CAS" — across other processes' operations. *)
let test_l2_flip_bit_stability () =
  let machine, inst = Test_support.mk_dcas ~n:2 () in
  let session =
    Session.create machine inst
      ~workloads:
        [|
          [ Spec.cas_op (i 0) (i 1) ];
          [ Spec.cas_op (i 1) (i 2); Spec.cas_op (i 2) (i 3) ];
        |]
  in
  let c = find_loc machine "C" in
  (* p0 completes its successful CAS *)
  while List.mem 0 (Session.runnable session) do
    Session.step session 0
  done;
  let bit () =
    Value.to_bool (Value.nth (Value.nth (Machine.peek machine c) 1) 0)
  in
  let flipped = bit () in
  Alcotest.(check bool) "flipped by p0" true flipped;
  (* p1's two successful CASes must not touch p0's bit *)
  drain session;
  assert_consistent session inst ~ctx:"stability";
  Alcotest.(check bool) "still flipped after p1's ops" flipped (bit ())

let suites =
  [
    ( "lemma1.drw",
      [
        Alcotest.test_case "crash before CP=1 → fail" `Quick
          test_l1_crash_before_cp1;
        Alcotest.test_case "crash after R write → ack" `Quick
          test_l1_crash_after_r_write;
        Alcotest.test_case "crash at CP=1 without write → fail" `Quick
          test_l1_crash_between_cp1_and_write;
        Alcotest.test_case "overwritten write completes" `Quick
          test_l1_overwritten_by_concurrent_write;
      ] );
    ( "lemma2.dcas",
      [
        Alcotest.test_case "value mismatch → false, vec untouched" `Quick
          test_l2_value_mismatch;
        Alcotest.test_case "crash before CP=1 → fail" `Quick
          test_l2_crash_before_cp1;
        Alcotest.test_case "crash after successful CAS → true" `Quick
          test_l2_crash_after_successful_cas;
        Alcotest.test_case "interfered CAS → fail" `Quick
          test_l2_interfered_cas_recovers_fail;
        Alcotest.test_case "flip-bit stability" `Quick test_l2_flip_bit_stability;
      ] );
  ]
