(* Tests for the history utilities. *)

open Nvm
open History

let i n = Value.Int n
let inv pid uid op = Event.Inv { pid; uid; op }
let ret pid uid v = Event.Ret { pid; uid; v }
let rret pid uid v = Event.Rec_ret { pid; uid; v }
let rfail pid uid = Event.Rec_fail { pid; uid }

let sample =
  [
    inv 0 0 (Spec.write_op (i 1));
    inv 1 1 Spec.read_op;
    ret 1 1 (i 0);
    Event.Crash;
    rret 0 0 Spec.ack;
    inv 1 2 (Spec.write_op (i 2));
    Event.Crash;
    rfail 1 2;
    inv 0 3 Spec.read_op;
  ]

let test_ops () =
  let infos = Hist.ops sample in
  Alcotest.(check int) "four ops" 4 (List.length infos);
  let find uid = List.find (fun (o : Hist.op_info) -> o.uid = uid) infos in
  (match (find 0).outcome with
  | Hist.Recovered v -> Alcotest.check Test_support.value_testable "recovered" Spec.ack v
  | _ -> Alcotest.fail "uid 0 should be recovered");
  (match (find 1).outcome with
  | Hist.Completed v -> Alcotest.check Test_support.value_testable "completed" (i 0) v
  | _ -> Alcotest.fail "uid 1 should be completed");
  Alcotest.(check bool) "uid 2 failed" true ((find 2).outcome = Hist.Failed);
  Alcotest.(check bool) "uid 3 pending" true ((find 3).outcome = Hist.Pending)

let test_stats () =
  let s = Hist.stats sample in
  Alcotest.(check int) "invocations" 4 s.Hist.invocations;
  Alcotest.(check int) "completed" 1 s.Hist.completed;
  Alcotest.(check int) "recovered" 1 s.Hist.recovered;
  Alcotest.(check int) "failed" 1 s.Hist.failed;
  Alcotest.(check int) "pending" 1 s.Hist.pending;
  Alcotest.(check int) "crashes" 2 s.Hist.crashes

let test_responses () =
  Alcotest.(check (list Test_support.value_testable))
    "in outcome order"
    [ i 0; Spec.ack ]
    (Hist.responses sample)

let test_well_formed () =
  Alcotest.(check bool) "sample ok" true (Hist.well_formed sample = Ok ());
  (match Hist.well_formed [ ret 0 9 Spec.ack ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown uid accepted");
  (match Hist.well_formed [ inv 0 0 Spec.read_op; inv 0 0 Spec.read_op ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate inv accepted");
  match
    Hist.well_formed [ inv 0 0 Spec.read_op; ret 0 0 (i 1); rfail 0 0 ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double outcome accepted"

(* property: stats of a genuine driver history add up *)
let prop_stats_consistent =
  QCheck.Test.make ~name:"stats partition the invocations" ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let workloads =
        Sched.Workload.register (Dtc_util.Prng.create seed) ~procs:3
          ~ops_per_proc:3 ~values:2
      in
      let _, res =
        Test_support.run_one ~seed (Test_support.mk_drw ~n:3) workloads
      in
      let s = Hist.stats res.Sched.Driver.history in
      s.Hist.invocations
      = s.Hist.completed + s.Hist.recovered + s.Hist.failed + s.Hist.pending)

(* --- Bitset Small-path representation stability (ISSUE 8) ---------

   The checker's hot sets stay [Small] whenever the operands are: a
   [Small]/[Small] union must never promote to [Big], and when one
   operand already contains the other, the result must be the physical
   operand — no constructor at all. *)

let is_small = function Bitset.Small _ -> true | Bitset.Big _ -> false

let test_bitset_small_in_small_out () =
  let a = Bitset.set (Bitset.set Bitset.empty 3) 40 in
  let b = Bitset.set (Bitset.set Bitset.empty 3) 7 in
  Alcotest.(check bool) "operands are Small" true (is_small a && is_small b);
  let u = Bitset.union a b in
  Alcotest.(check bool) "Small/Small union stays Small" true (is_small u);
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "union has %d" k) true
        (Bitset.mem u k))
    [ 3; 7; 40 ];
  (* physical operand reuse when one side contains the other *)
  Alcotest.(check bool) "union t t == t" true (Bitset.union a a == a);
  Alcotest.(check bool) "union u a == u" true (Bitset.union u a == u);
  Alcotest.(check bool) "union a u == u" true (Bitset.union a u == u);
  (* boundary: index word_bits - 1 is the last Small index *)
  let top = Bitset.set Bitset.empty (Bitset.word_bits - 1) in
  Alcotest.(check bool) "last Small index stays Small" true (is_small top);
  Alcotest.(check bool) "index word_bits promotes to Big" false
    (is_small (Bitset.set Bitset.empty Bitset.word_bits));
  Alcotest.(check bool) "subset" true
    (Bitset.subset a u && Bitset.subset b u && not (Bitset.subset u a));
  Alcotest.(check bool) "equal reflexive" true
    (Bitset.equal u (Bitset.union a b))

(* the Small fast paths must not allocate: run each operation in a tight
   loop under Alloc_stats and require the total to stay far below one
   word per iteration.  A genuine per-iteration allocation costs at
   least 2 words/iter (a boxed block); the harness itself (snapshots,
   GC-sampling granularity) contributes a few hundred words total, so
   half a word per iteration separates the two regimes decisively. *)
let test_bitset_small_paths_allocation_free () =
  let a = Bitset.set (Bitset.set Bitset.empty 3) 40 in
  let b = Bitset.set Bitset.empty 3 in
  let u = Bitset.union a b in
  let iters = 10_000 in
  let budget = float_of_int iters /. 2.0 in
  let check_no_alloc what f =
    let (), d = Dtc_util.Alloc_stats.measure f in
    let words =
      Dtc_util.Alloc_stats.allocated_bytes d /. float_of_int (Sys.word_size / 8)
    in
    if words > budget then
      Alcotest.failf "%s allocated %.0f words over %d iterations" what words
        iters
  in
  let sink_b = ref true in
  check_no_alloc "union (operand reuse)" (fun () ->
      for _ = 1 to iters do
        sink_b := Bitset.union u a == u
      done);
  check_no_alloc "subset" (fun () ->
      for _ = 1 to iters do
        sink_b := Bitset.subset b u
      done);
  check_no_alloc "equal" (fun () ->
      for _ = 1 to iters do
        sink_b := Bitset.equal a u
      done);
  ignore (!sink_b : bool)

let suites =
  [
    ( "history.hist",
      [
        Alcotest.test_case "ops" `Quick test_ops;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "responses" `Quick test_responses;
        Alcotest.test_case "well_formed" `Quick test_well_formed;
        QCheck_alcotest.to_alcotest prop_stats_consistent;
      ] );
    ( "history.bitset",
      [
        Alcotest.test_case "Small-in/Small-out" `Quick
          test_bitset_small_in_small_out;
        Alcotest.test_case "Small fast paths allocation-free" `Quick
          test_bitset_small_paths_allocation_free;
      ] );
  ]
