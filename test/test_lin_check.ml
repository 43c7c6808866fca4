(* Tests for the durable-linearizability + detectability checker on
   hand-crafted histories. *)

open Nvm
open History

let i n = Value.Int n
let reg = Spec.register (i 0)
let casc = Spec.cas_cell (i 0)

let inv pid uid op = Event.Inv { pid; uid; op }
let ret pid uid v = Event.Ret { pid; uid; v }
let rret pid uid v = Event.Rec_ret { pid; uid; v }
let rfail pid uid = Event.Rec_fail { pid; uid }

(* every hand-crafted history is judged by BOTH engines; they must agree
   on the verdict class and, for violations, on the exact message *)
let both spec h =
  let vb = Lin_check.check_with `Batch spec h in
  let vi = Lin_check.check_with `Incremental spec h in
  (match (vb, vi) with
  | Lin_check.Ok_linearizable _, Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation mb, Lin_check.Violation mi ->
      Alcotest.(check string) "engines agree on the message" mb mi
  | Lin_check.Ok_linearizable _, Lin_check.Violation mi ->
      Alcotest.failf "batch OK but incremental rejects: %s" mi
  | Lin_check.Violation mb, Lin_check.Ok_linearizable _ ->
      Alcotest.failf "incremental OK but batch rejects: %s" mb);
  vb

let ok spec h =
  match both spec h with
  | Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation msg -> Alcotest.failf "expected OK, got: %s" msg

let bad spec h =
  match both spec h with
  | Lin_check.Ok_linearizable _ -> Alcotest.fail "expected a violation"
  | Lin_check.Violation _ -> ()

let test_empty () = ok reg []

let test_sequential () =
  ok reg
    [
      inv 0 0 (Spec.write_op (i 5));
      ret 0 0 Spec.ack;
      inv 1 1 Spec.read_op;
      ret 1 1 (i 5);
    ]

let test_wrong_response () =
  bad reg
    [
      inv 0 0 (Spec.write_op (i 5));
      ret 0 0 Spec.ack;
      inv 1 1 Spec.read_op;
      ret 1 1 (i 7);
    ]

let test_concurrent_reorder () =
  (* two overlapping writes; the read may see either, as long as order is
     consistent *)
  ok reg
    [
      inv 0 0 (Spec.write_op (i 1));
      inv 1 1 (Spec.write_op (i 2));
      ret 0 0 Spec.ack;
      ret 1 1 Spec.ack;
      inv 0 2 Spec.read_op;
      ret 0 2 (i 1);
    ]

let test_real_time_order_enforced () =
  (* a write completed strictly before a read cannot be reordered after
     it: the read must not return the overwritten initial value once a
     later completed write exists *)
  bad reg
    [
      inv 0 0 (Spec.write_op (i 1));
      ret 0 0 Spec.ack;
      inv 0 1 (Spec.write_op (i 2));
      ret 0 1 Spec.ack;
      inv 1 2 Spec.read_op;
      ret 1 2 (i 1);
    ]

let test_pending_op_may_linearize () =
  (* p0's write never completes, but the read seeing it is fine *)
  ok reg
    [
      inv 0 0 (Spec.write_op (i 9));
      inv 1 1 Spec.read_op;
      ret 1 1 (i 9);
    ]

let test_pending_op_may_not_linearize () =
  ok reg [ inv 0 0 (Spec.write_op (i 9)); inv 1 1 Spec.read_op; ret 1 1 (i 0) ]

let test_rec_ret_counts_as_linearized () =
  ok reg
    [
      inv 0 0 (Spec.write_op (i 3));
      Event.Crash;
      rret 0 0 Spec.ack;
      inv 1 1 Spec.read_op;
      ret 1 1 (i 3);
    ]

let test_rec_fail_forbids_linearization () =
  (* recovery said the write never happened, yet a read observed it *)
  bad reg
    [
      inv 0 0 (Spec.write_op (i 3));
      Event.Crash;
      rfail 0 0;
      inv 1 1 Spec.read_op;
      ret 1 1 (i 3);
    ]

let test_rec_fail_consistent () =
  ok reg
    [
      inv 0 0 (Spec.write_op (i 3));
      Event.Crash;
      rfail 0 0;
      inv 1 1 Spec.read_op;
      ret 1 1 (i 0);
    ]

let test_rec_fail_blocks_nothing () =
  (* ops invoked after a failed op's verdict are not blocked by it *)
  ok reg
    [
      inv 0 0 (Spec.write_op (i 3));
      Event.Crash;
      rfail 0 0;
      inv 0 1 (Spec.write_op (i 4));
      ret 0 1 Spec.ack;
      inv 1 2 Spec.read_op;
      ret 1 2 (i 4);
    ]

let test_cas_double_success_impossible () =
  (* two successful cas(0,1) with no one resetting: impossible *)
  bad casc
    [
      inv 0 0 (Spec.cas_op (i 0) (i 1));
      ret 0 0 (Value.Bool true);
      inv 1 1 (Spec.cas_op (i 0) (i 1));
      ret 1 1 (Value.Bool true);
    ]

let test_cas_success_then_failure () =
  ok casc
    [
      inv 0 0 (Spec.cas_op (i 0) (i 1));
      ret 0 0 (Value.Bool true);
      inv 1 1 (Spec.cas_op (i 0) (i 1));
      ret 1 1 (Value.Bool false);
    ]

let test_cas_recovered_success_proves_linearization () =
  (* q's successful cas(1,0) proves p's crashed cas(0,1) took effect, so a
     fail verdict for p is a violation *)
  bad casc
    [
      inv 0 0 (Spec.cas_op (i 0) (i 1));
      Event.Crash;
      rfail 0 0;
      inv 1 1 (Spec.cas_op (i 1) (i 0));
      ret 1 1 (Value.Bool true);
    ]

let test_malformed_double_outcome () =
  bad reg
    [
      inv 0 0 (Spec.write_op (i 1));
      ret 0 0 Spec.ack;
      rret 0 0 Spec.ack;
    ]

let test_malformed_unknown_uid () = bad reg [ ret 0 7 Spec.ack ]

let test_malformed_duplicate_inv () =
  bad reg [ inv 0 0 Spec.read_op; inv 0 0 Spec.read_op ]

(* Regression for the identity-CAS finding: the behaviour Algorithm 2 as
   published can produce — a failed cas(1,1) while the value is 1
   throughout — must be rejected.  (Our implementation runs identity CAS
   read-only precisely so this history can no longer arise.) *)
let test_identity_cas_spurious_failure_rejected () =
  bad casc
    [
      inv 0 0 (Spec.cas_op (i 0) (i 1));
      ret 0 0 (Value.Bool true);
      inv 1 1 (Spec.cas_op (i 1) (i 1));
      ret 1 1 (Value.Bool false);
    ]

let test_identity_cas_success_accepted () =
  ok casc
    [
      inv 0 0 (Spec.cas_op (i 0) (i 1));
      ret 0 0 (Value.Bool true);
      inv 1 1 (Spec.cas_op (i 1) (i 1));
      ret 1 1 (Value.Bool true);
      inv 0 2 Spec.read_op;
      ret 0 2 (i 1);
    ]

(* ------------------------------------------------------------------ *)
(* histories beyond one bitset word (> Bitset.word_bits ops) *)

let long_history n =
  List.concat
    (List.init n (fun k ->
         if k mod 2 = 0 then
           [ inv 0 k (Spec.write_op (i (k mod 7))); ret 0 k Spec.ack ]
         else [ inv 0 k Spec.read_op; ret 0 k (i ((k - 1) mod 7)) ]))

let test_long_history_accepted () =
  Alcotest.(check bool)
    "70 > word_bits" true
    (70 > Bitset.word_bits);
  ok reg (long_history 70)

let test_long_history_corrupted () =
  (* corrupt one read deep past the word boundary *)
  let h =
    List.map
      (function
        | Event.Ret { pid; uid = 67; v = _ } -> ret pid 67 (i 6)
        | e -> e)
      (long_history 70)
  in
  bad reg h

(* concurrent crashed histories past the word boundary: 30 random Drw
   runs (3 processes x 40 operations, up to 2 crashes each) — the
   parameters of the committed lincheck "drw_long_histories" row — judged
   by both engines, verdicts and violation messages alike *)
let test_long_crash_histories_parity () =
  let open Sched in
  let events = ref 0 in
  for index = 0 to 29 do
    let prng = Dtc_util.Prng.stream 7 ~index in
    let wseed =
      Int64.to_int (Int64.shift_right_logical (Dtc_util.Prng.next_int64 prng) 2)
    in
    let m = Runtime.Machine.create () in
    let inst = Detectable.Drw.instance (Detectable.Drw.create m ~n:3 ~init:(i 0)) in
    let workloads =
      Workload.register (Dtc_util.Prng.create wseed) ~procs:3 ~ops_per_proc:40
        ~values:3
    in
    let cfg =
      Driver.seeded_config ~max_steps:1_000_000 ~max_crashes:2
        ~crash_prob:0.002 prng
    in
    let h = (Driver.run m inst ~workloads cfg).Driver.history in
    let ops =
      List.length (List.filter (function Event.Inv _ -> true | _ -> false) h)
    in
    Alcotest.(check bool) "beyond word_bits" true (ops > Bitset.word_bits);
    events := !events + List.length h;
    ignore (both inst.Obj_inst.spec h)
  done;
  Alcotest.(check int) "the committed row's event total" 7426 !events

(* ------------------------------------------------------------------ *)
(* the incremental session: mark/rewind semantics *)

let test_session_rewind_different_suffix () =
  let s = Lin_check.Session.create reg in
  Lin_check.Session.push_history s
    [ inv 0 0 (Spec.write_op (i 5)); ret 0 0 Spec.ack ];
  let m = Lin_check.Session.mark s in
  Lin_check.Session.push_history s [ inv 1 1 Spec.read_op; ret 1 1 (i 7) ];
  (match Lin_check.Session.verdict s with
  | Lin_check.Violation _ -> ()
  | Lin_check.Ok_linearizable _ -> Alcotest.fail "bad suffix accepted");
  Lin_check.Session.rewind s m;
  (match Lin_check.Session.verdict s with
  | Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation msg -> Alcotest.failf "prefix rejected: %s" msg);
  Lin_check.Session.push_history s [ inv 1 1 Spec.read_op; ret 1 1 (i 5) ];
  match Lin_check.Session.verdict s with
  | Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation msg -> Alcotest.failf "good suffix rejected: %s" msg

let test_session_rewind_past_malformed () =
  let s = Lin_check.Session.create reg in
  Lin_check.Session.push_event s (inv 0 0 Spec.read_op);
  let m = Lin_check.Session.mark s in
  Lin_check.Session.push_event s (inv 0 0 Spec.read_op);
  (match Lin_check.Session.verdict s with
  | Lin_check.Violation msg ->
      Alcotest.(check string)
        "batch message" msg
        (match
           Lin_check.check_with `Batch reg [ inv 0 0 Spec.read_op; inv 0 0 Spec.read_op ]
         with
        | Lin_check.Violation m -> m
        | Lin_check.Ok_linearizable _ -> "?")
  | Lin_check.Ok_linearizable _ -> Alcotest.fail "duplicate inv accepted");
  Lin_check.Session.rewind s m;
  Lin_check.Session.push_event s (ret 0 0 (i 0));
  match Lin_check.Session.verdict s with
  | Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation msg ->
      Alcotest.failf "clean suffix after rewind rejected: %s" msg

let test_session_stale_mark_rejected () =
  (* same LIFO contract as Nvm.Mem: rewinding to a mark invalidates every
     mark taken after it *)
  let s = Lin_check.Session.create reg in
  let m1 = Lin_check.Session.mark s in
  Lin_check.Session.push_event s (inv 0 0 Spec.read_op);
  let m2 = Lin_check.Session.mark s in
  Lin_check.Session.rewind s m1;
  Alcotest.check_raises "stale mark"
    (Invalid_argument
       "Lin_check.Session.rewind: stale mark (marks must be used in LIFO \
        order)") (fun () -> Lin_check.Session.rewind s m2)

(* ------------------------------------------------------------------ *)
(* visited-set hashing on deep values (regression: the old visited set
   keyed on polymorphic Hashtbl.hash, which stops sampling after a few
   nodes, so deep states whose difference is buried collapse into one
   bucket; Value.hc_of digests hash the whole structure) *)

let deep_chain k =
  let rec go k acc = if k = 0 then acc else go (k - 1) (Value.pair (i 0) acc) in
  go k (i k)

let test_deep_value_fingerprints () =
  let n = 200 in
  let chains = List.init n (fun k -> deep_chain (k + 16)) in
  let distinct f =
    let t = Hashtbl.create 64 in
    List.iter (fun c -> Hashtbl.replace t (f c) ()) chains;
    Hashtbl.length t
  in
  let poly = distinct Hashtbl.hash in
  let digested = distinct (fun c -> (Value.hc_of c).Value.da) in
  Alcotest.(check int) "hc_of digests are collision-free" n digested;
  if poly > n / 4 then
    Alcotest.failf
      "expected polymorphic hash to collapse deep chains (got %d distinct \
       of %d) — the regression premise no longer holds"
      poly n

(* a register whose abstract state drags the whole write history behind
   it as a deep chain: every distinct linearization prefix has a deep,
   mostly-identical state, so the checker's memo table lives on its
   fingerprint hashing *)
let deep_reg =
  {
    Spec.obj_name = "deep_register";
    init = Value.pair (i 0) Value.Bot;
    step =
      (fun st op ->
        match (op.Spec.name, op.Spec.args) with
        | "read", [||] -> (st, Value.nth st 0)
        | "write", [| v |] -> (Value.pair v st, Spec.ack)
        | _ -> invalid_arg "deep_register: unknown op");
  }

let test_deep_state_parity () =
  (* concurrent writes of the SAME value: all reachable states at a given
     linearized-set size are deep chains differing only in depth/suffix *)
  let h =
    [
      inv 0 0 (Spec.write_op (i 0));
      inv 1 1 (Spec.write_op (i 0));
      ret 0 0 Spec.ack;
      ret 1 1 Spec.ack;
      inv 0 2 Spec.read_op;
      inv 1 3 (Spec.write_op (i 0));
      ret 0 2 (i 0);
      ret 1 3 Spec.ack;
    ]
  in
  ok deep_reg h;
  bad deep_reg (h @ [ inv 0 4 Spec.read_op; ret 0 4 (i 9) ]);
  (* crash + detectability on the deep spec *)
  ok deep_reg
    [
      inv 0 0 (Spec.write_op (i 0));
      Event.Crash;
      rfail 0 0;
      inv 1 1 Spec.read_op;
      ret 1 1 (i 0);
    ]

let test_witness_is_reported () =
  match
    Lin_check.check_with `Batch reg
      [ inv 0 0 (Spec.write_op (i 5)); ret 0 0 Spec.ack ]
  with
  | Lin_check.Ok_linearizable w ->
      Alcotest.(check int) "one op linearized" 1 (List.length w)
  | Lin_check.Violation msg -> Alcotest.failf "unexpected: %s" msg

(* Property: every crash-free sequential history generated from the spec
   itself is accepted by both engines — with the SAME witness, since a
   complete sequential history has exactly one linearization.  The 80-op
   bound deliberately exceeds [Bitset.word_bits] so the chunked-bitset
   slow path is exercised on random data. *)
let prop_sequential_accepted =
  let gen = QCheck.(list (option (int_bound 9))) in
  QCheck.Test.make ~name:"sequential histories accepted"
    ~count:Test_support.qcheck_count gen (fun cmds ->
      let ops =
        List.map
          (function Some x -> Spec.write_op (i x) | None -> Spec.read_op)
          cmds
      in
      let ops =
        if List.length ops > 80 then List.filteri (fun k _ -> k < 80) ops
        else ops
      in
      let responses = Oracle.run_spec reg ops in
      let events =
        List.concat
          (List.mapi
             (fun k (op, r) -> [ inv 0 k op; ret 0 k r ])
             (List.combine ops responses))
      in
      match
        ( Lin_check.check_with `Batch reg events,
          Lin_check.check_with `Incremental reg events )
      with
      | Lin_check.Ok_linearizable wb, Lin_check.Ok_linearizable wi -> wb = wi
      | _ -> false)

(* Property: corrupting one read response of a non-trivial sequential
   history is rejected by both engines. *)
let prop_corrupted_rejected =
  let gen = QCheck.(pair (int_range 1 9) (int_range 1 9)) in
  QCheck.Test.make ~name:"corrupted read rejected"
    ~count:Test_support.qcheck_count gen (fun (x, y) ->
      QCheck.assume (x <> y);
      let events =
        [
          inv 0 0 (Spec.write_op (i x));
          ret 0 0 Spec.ack;
          inv 0 1 Spec.read_op;
          ret 0 1 (i y);
        ]
      in
      (not (Lin_check.is_ok (Lin_check.check_with `Batch reg events)))
      && not (Lin_check.is_ok (Lin_check.check_with `Incremental reg events)))

(* Property: a session driven through random push/mark/rewind traffic
   always agrees with a batch check of whatever history it currently
   holds.  Commands: [Some (Some x)] push a write+ret pair, [Some None]
   push a read+ret pair (response read off a shadow run), [None] mark
   here — and at the end every outstanding mark is rewound in LIFO
   order, re-checking parity after each rewind. *)
let prop_session_rewind_parity =
  let gen = QCheck.(list (option (option (int_bound 4)))) in
  QCheck.Test.make ~name:"session mark/rewind parity"
    ~count:Test_support.qcheck_count gen (fun cmds ->
      let cmds = List.filteri (fun k _ -> k < 40) cmds in
      let s = Lin_check.Session.create reg in
      let hist = ref [] (* newest first *) in
      let cur = ref (i 0) in
      let marks = ref [] in
      let push e =
        hist := e :: !hist;
        Lin_check.Session.push_event s e
      in
      let agree () =
        let batch = Lin_check.check_with `Batch reg (List.rev !hist) in
        match (batch, Lin_check.Session.verdict s) with
        | Lin_check.Ok_linearizable _, Lin_check.Ok_linearizable _ -> true
        | Lin_check.Violation mb, Lin_check.Violation mi -> mb = mi
        | _ -> false
      in
      let uid = ref 0 in
      let ok =
        List.for_all
          (fun cmd ->
            (match cmd with
            | Some (Some x) ->
                push (inv 0 !uid (Spec.write_op (i x)));
                push (ret 0 !uid Spec.ack);
                cur := i x;
                incr uid
            | Some None ->
                push (inv 0 !uid Spec.read_op);
                push (ret 0 !uid !cur);
                incr uid
            | None ->
                marks := (Lin_check.Session.mark s, !hist, !cur) :: !marks);
            agree ())
          cmds
      in
      ok
      && List.for_all
           (fun (m, h, c) ->
             Lin_check.Session.rewind s m;
             hist := h;
             cur := c;
             agree ())
           !marks)

let suites =
  [
    ( "history.lin_check",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "sequential" `Quick test_sequential;
        Alcotest.test_case "wrong response" `Quick test_wrong_response;
        Alcotest.test_case "concurrent reorder" `Quick test_concurrent_reorder;
        Alcotest.test_case "real-time order" `Quick
          test_real_time_order_enforced;
        Alcotest.test_case "pending may linearize" `Quick
          test_pending_op_may_linearize;
        Alcotest.test_case "pending may not linearize" `Quick
          test_pending_op_may_not_linearize;
        Alcotest.test_case "rec_ret linearizes" `Quick
          test_rec_ret_counts_as_linearized;
        Alcotest.test_case "rec_fail forbids" `Quick
          test_rec_fail_forbids_linearization;
        Alcotest.test_case "rec_fail consistent" `Quick test_rec_fail_consistent;
        Alcotest.test_case "rec_fail blocks nothing" `Quick
          test_rec_fail_blocks_nothing;
        Alcotest.test_case "cas double success" `Quick
          test_cas_double_success_impossible;
        Alcotest.test_case "cas success then failure" `Quick
          test_cas_success_then_failure;
        Alcotest.test_case "recovered cas evidence" `Quick
          test_cas_recovered_success_proves_linearization;
        Alcotest.test_case "malformed: double outcome" `Quick
          test_malformed_double_outcome;
        Alcotest.test_case "malformed: unknown uid" `Quick
          test_malformed_unknown_uid;
        Alcotest.test_case "malformed: duplicate inv" `Quick
          test_malformed_duplicate_inv;
        Alcotest.test_case "identity cas spurious failure (regression)"
          `Quick test_identity_cas_spurious_failure_rejected;
        Alcotest.test_case "identity cas success" `Quick
          test_identity_cas_success_accepted;
        Alcotest.test_case "witness reported" `Quick test_witness_is_reported;
        Alcotest.test_case "long history accepted (bitset path)" `Quick
          test_long_history_accepted;
        Alcotest.test_case "long history corrupted (bitset path)" `Quick
          test_long_history_corrupted;
        Alcotest.test_case "long crash histories: engine parity" `Quick
          test_long_crash_histories_parity;
        Alcotest.test_case "session rewind, different suffix" `Quick
          test_session_rewind_different_suffix;
        Alcotest.test_case "session rewind past malformed" `Quick
          test_session_rewind_past_malformed;
        Alcotest.test_case "session stale mark rejected" `Quick
          test_session_stale_mark_rejected;
        Alcotest.test_case "deep value fingerprints (regression)" `Quick
          test_deep_value_fingerprints;
        Alcotest.test_case "deep state parity" `Quick test_deep_state_parity;
        QCheck_alcotest.to_alcotest prop_sequential_accepted;
        QCheck_alcotest.to_alcotest prop_corrupted_rejected;
        QCheck_alcotest.to_alcotest prop_session_rewind_parity;
      ] );
  ]
