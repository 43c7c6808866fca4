(* Tests for Nvm.Mem and Nvm.Cache: the store, snapshots,
   memory-equivalence, footprint accounting and the shared-cache layer. *)

open Nvm

let v = Test_support.value_testable
let i n = Value.Int n

let test_alloc_read_write () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
  let b = Mem.alloc m ~name:"b" ~kind:(Loc.Private 0) Value.Bot in
  Alcotest.check v "init a" (i 1) (Mem.read m a);
  Alcotest.check v "init b" Value.Bot (Mem.read m b);
  Mem.write m a (i 5);
  Alcotest.check v "after write" (i 5) (Mem.read m a);
  Alcotest.(check int) "n_locs" 2 (Mem.n_locs m)

let test_many_allocs () =
  (* force internal growth past the initial capacity *)
  let m = Mem.create () in
  let locs =
    List.init 200 (fun k ->
        Mem.alloc m ~name:(Printf.sprintf "x%d" k) ~kind:Loc.Shared (i k))
  in
  List.iteri
    (fun k loc -> Alcotest.check v "kept value" (i k) (Mem.read m loc))
    locs

let test_cas () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 0) in
  Alcotest.(check bool) "cas hits" true (Mem.cas m a (i 0) (i 1));
  Alcotest.(check bool) "cas misses" false (Mem.cas m a (i 0) (i 2));
  Alcotest.check v "value" (i 1) (Mem.read m a)

let test_faa () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 10) in
  Alcotest.(check int) "returns old" 10 (Mem.faa m a 5);
  Alcotest.(check int) "added" 15 (Value.to_int (Mem.read m a));
  Alcotest.(check int) "negative delta" 15 (Mem.faa m a (-3));
  Alcotest.(check int) "subtracted" 12 (Value.to_int (Mem.read m a))

let test_snapshot_restore () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
  let snap = Mem.snapshot m in
  Mem.write m a (i 2);
  Mem.restore m snap;
  Alcotest.check v "restored" (i 1) (Mem.read m a)

let test_restore_rolls_back_max_bits () =
  (* Regression: [restore] used to put values back but leave the per-location
     high-water marks at whatever the abandoned branch drove them to, so a
     model-checking replay that explored a wide write first would inflate
     [max_shared_bits] for every sibling branch explored after it. *)
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
  let snap = Mem.snapshot m in
  Alcotest.(check int) "baseline high-water" 1 (Mem.max_shared_bits m);
  Mem.write m a (i 255);
  Alcotest.(check int) "wide write raises it" 8 (Mem.max_shared_bits m);
  Mem.restore m snap;
  Alcotest.(check int) "restore rolls it back" 1 (Mem.max_shared_bits m);
  Alcotest.(check int) "per-loc mark rolls back too" 1 (Mem.max_bits_of m a);
  (* and a snapshot taken *after* the wide write must preserve the mark *)
  Mem.write m a (i 255);
  let snap8 = Mem.snapshot m in
  Mem.restore m snap;
  Alcotest.(check int) "dropped again" 1 (Mem.max_shared_bits m);
  Mem.restore m snap8;
  Alcotest.(check int) "snapshot carries its own mark" 8
    (Mem.max_shared_bits m)

let test_equal_shared_ignores_private () =
  let mk () =
    let m = Mem.create () in
    let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
    let p = Mem.alloc m ~name:"p" ~kind:(Loc.Private 0) (i 0) in
    (m, a, p)
  in
  let m1, _, p1 = mk () in
  let m2, a2, _ = mk () in
  Mem.write m1 p1 (i 42);
  Alcotest.(check bool) "private differences invisible" true
    (Mem.equal_shared (Mem.snapshot m1) (Mem.snapshot m2));
  Alcotest.(check int) "hash agrees" (Mem.hash_shared (Mem.snapshot m1))
    (Mem.hash_shared (Mem.snapshot m2));
  Mem.write m2 a2 (i 7);
  Alcotest.(check bool) "shared differences visible" false
    (Mem.equal_shared (Mem.snapshot m1) (Mem.snapshot m2));
  Alcotest.(check bool) "equal_full sees private" false
    (Mem.equal_full (Mem.snapshot m1) (Mem.snapshot m2))

let test_footprint () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
  let _p = Mem.alloc m ~name:"p" ~kind:(Loc.Private 0) (i 1023) in
  Alcotest.(check int) "shared bits exclude private" 1 (Mem.shared_bits m);
  Mem.write m a (i 255);
  Alcotest.(check int) "current" 8 (Mem.shared_bits m);
  Mem.write m a (i 0);
  Alcotest.(check int) "current drops" 1 (Mem.shared_bits m);
  Alcotest.(check int) "high-water sticks" 8 (Mem.max_shared_bits m);
  Alcotest.(check int) "per-loc max" 8 (Mem.max_bits_of m a)

let test_foreign_loc_rejected () =
  let m1 = Mem.create () in
  let m2 = Mem.create () in
  let a1 = Mem.alloc m1 ~name:"a" ~kind:Loc.Shared (i 1) in
  ignore (Mem.alloc m2 ~name:"b" ~kind:Loc.Shared (i 1));
  (* same id exists in m2, so read succeeds; an out-of-range id must not *)
  let ghost = Mem.alloc m1 ~name:"g" ~kind:Loc.Shared (i 2) in
  (match Mem.read m2 ghost with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for out-of-range loc");
  ignore a1

(* --- Cache (shared-cache model) --- *)

let test_cache_read_through () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
  let c = Cache.create m in
  Alcotest.check v "reads backing" (i 1) (Cache.read c a)

let test_cache_write_not_persistent () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
  let c = Cache.create m in
  Cache.write c a (i 2);
  Alcotest.check v "cache sees new" (i 2) (Cache.read c a);
  Alcotest.check v "NVM sees old" (i 1) (Mem.read m a);
  Cache.persist c a;
  Alcotest.check v "persist writes back" (i 2) (Mem.read m a)

let test_cache_crash_drops () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
  let b = Mem.alloc m ~name:"b" ~kind:Loc.Shared (i 1) in
  let c = Cache.create m in
  Cache.write c a (i 2);
  Cache.write c b (i 3);
  (* adversarial: keep only [b] *)
  Cache.crash c ~keep:(fun loc -> loc == b);
  Alcotest.check v "a lost" (i 1) (Mem.read m a);
  Alcotest.check v "b survived" (i 3) (Mem.read m b);
  Alcotest.check v "cache empty after crash" (i 1) (Cache.read c a)

let test_cache_cas_faa () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 0) in
  let c = Cache.create m in
  Alcotest.(check bool) "cas via cache" true (Cache.cas c a (i 0) (i 1));
  Alcotest.(check bool) "cas sees cache" false (Cache.cas c a (i 0) (i 2));
  Alcotest.(check int) "faa via cache" 1 (Cache.faa c a 4);
  Alcotest.check v "NVM untouched" (i 0) (Mem.read m a);
  Cache.persist_all c;
  Alcotest.check v "fence persists" (i 5) (Mem.read m a)

let test_cache_dirty_tracking () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 0) in
  let b = Mem.alloc m ~name:"b" ~kind:Loc.Shared (i 0) in
  let c = Cache.create m in
  Alcotest.(check int) "clean" 0 (List.length (Cache.dirty_locs c));
  Cache.write c a (i 1);
  Cache.write c b (i 2);
  Alcotest.(check int) "two dirty" 2 (List.length (Cache.dirty_locs c));
  Cache.persist c a;
  Alcotest.(check int) "one dirty" 1 (List.length (Cache.dirty_locs c))

(* the dirty-set checkpoint token must not depend on hash-table
   iteration order: two caches holding the same dirty state — built by
   writing in different orders — produce structurally equal [entries],
   in allocation-id order (a Hashtbl.fold here once made the undo
   engine's snapshots order-nondeterministic) *)
let test_cache_entries_deterministic () =
  let m = Mem.create () in
  let locs =
    Array.init 8 (fun k ->
        Mem.alloc m ~name:(Printf.sprintf "e%d" k) ~kind:Loc.Shared (i 0))
  in
  let c1 = Cache.create m and c2 = Cache.create m in
  Array.iteri (fun k loc -> Cache.write c1 loc (i (100 + k))) locs;
  List.iter
    (fun k -> Cache.write c2 locs.(k) (i (100 + k)))
    [ 5; 2; 7; 0; 3; 6; 1; 4 ];
  let ids entries = List.map (fun ((l : Loc.t), _) -> l.Loc.id) entries in
  Alcotest.(check (list int))
    "same dirty state, same entries" (ids (Cache.entries c1))
    (ids (Cache.entries c2));
  Alcotest.(check bool) "values agree too" true
    (List.for_all2
       (fun (_, a) (_, b) -> Value.equal a b)
       (Cache.entries c1) (Cache.entries c2));
  Alcotest.(check (list int))
    "ascending allocation ids"
    (List.sort compare (ids (Cache.entries c1)))
    (ids (Cache.entries c1))

(* --- fault-model crashes --- *)

let test_crash_faulted_atomic_keeps_all () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
  let b = Mem.alloc m ~name:"b" ~kind:Loc.Shared (i 1) in
  let c = Cache.create m in
  Cache.write c a (i 2);
  Cache.write c b (i 3);
  let p1 = Dtc_util.Prng.create 77 and p2 = Dtc_util.Prng.create 77 in
  Cache.crash_faulted c ~fault:Fault_model.Atomic ~prng:p1;
  Alcotest.check v "a persisted" (i 2) (Mem.read m a);
  Alcotest.check v "b persisted" (i 3) (Mem.read m b);
  (* atomic must consume no randomness: the prng is still in step with
     an untouched twin *)
  Alcotest.(check int64) "no draws consumed"
    (Dtc_util.Prng.next_int64 p2) (Dtc_util.Prng.next_int64 p1)

let test_crash_faulted_drop_extremes () =
  let mk () =
    let m = Mem.create () in
    let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
    let b = Mem.alloc m ~name:"b" ~kind:Loc.Shared (i 1) in
    let c = Cache.create m in
    Cache.write c a (i 2);
    Cache.write c b (i 3);
    (m, a, b, c)
  in
  let m, a, b, c = mk () in
  Cache.crash_faulted c
    ~fault:(Fault_model.Drop { keep_prob = 0.0 })
    ~prng:(Dtc_util.Prng.create 1);
  Alcotest.check v "keep=0 drops a" (i 1) (Mem.read m a);
  Alcotest.check v "keep=0 drops b" (i 1) (Mem.read m b);
  let m, a, b, c = mk () in
  Cache.crash_faulted c
    ~fault:(Fault_model.Drop { keep_prob = 1.0 })
    ~prng:(Dtc_util.Prng.create 1);
  Alcotest.check v "keep=1 keeps a" (i 2) (Mem.read m a);
  Alcotest.check v "keep=1 keeps b" (i 3) (Mem.read m b)

let test_crash_faulted_deterministic () =
  (* same dirty set + same prng seed => identical NVM image, for every
     model; across seeds, each line ends up holding either its old or
     its new value, never anything else *)
  let image fault seed =
    let m = Mem.create () in
    let locs =
      Array.init 6 (fun k ->
          Mem.alloc m ~name:(Printf.sprintf "l%d" k) ~kind:Loc.Shared (i k))
    in
    let c = Cache.create m in
    Array.iteri (fun k loc -> Cache.write c loc (i (100 + k))) locs;
    Cache.crash_faulted c ~fault ~prng:(Dtc_util.Prng.create seed);
    Array.to_list (Array.map (Mem.read m) locs)
  in
  List.iter
    (fun fault ->
      List.iter
        (fun seed ->
          Alcotest.(check bool)
            "replayable" true
            (image fault seed = image fault seed);
          List.iteri
            (fun k value ->
              if
                (not (Value.equal value (i k)))
                && not (Value.equal value (i (100 + k)))
              then Alcotest.failf "line %d holds neither old nor new value" k)
            (image fault seed))
        [ 1; 2; 3; 42 ])
    [
      Fault_model.Drop { keep_prob = 0.5 };
      Fault_model.Reorder;
      Fault_model.Torn { granularity = 1 };
    ]

let test_crash_faulted_torn_tears_tuples () =
  (* with a dirty composite value, torn persistence can commit some
     components of the new tuple and lose others; every component is
     individually old-or-new, and some seed exhibits a genuine mix *)
  let run seed =
    let m = Mem.create () in
    let a =
      Mem.alloc m ~name:"t" ~kind:Loc.Shared
        (Value.Tup [| i 0; i 0; i 0; i 0 |])
    in
    let c = Cache.create m in
    Cache.write c a (Value.Tup [| i 1; i 1; i 1; i 1 |]);
    Cache.crash_faulted c
      ~fault:(Fault_model.Torn { granularity = 1 })
      ~prng:(Dtc_util.Prng.create seed);
    match Mem.read m a with
    | Value.Tup parts ->
        Array.iter
          (fun p ->
            if not (Value.equal p (i 0) || Value.equal p (i 1)) then
              Alcotest.fail "torn component is neither old nor new")
          parts;
        let news =
          Array.fold_left
            (fun acc p -> if Value.equal p (i 1) then acc + 1 else acc)
            0 parts
        in
        news
    | _ -> Alcotest.fail "tuple shape lost"
  in
  let mixes =
    List.filter
      (fun seed ->
        let n = run seed in
        n > 0 && n < 4)
      (List.init 32 (fun s -> s + 1))
  in
  Alcotest.(check bool) "some seed tears the tuple mid-way" true (mixes <> [])

(* --- write journal (the undo engine's substrate) --- *)

let test_mark_rewind_basic () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 0) in
  let b = Mem.alloc m ~name:"b" ~kind:Loc.Shared (i 10) in
  Mem.set_journal m true;
  let mk = Mem.mark m in
  Mem.write m a (i 5);
  Alcotest.(check bool) "cas journals too" true (Mem.cas m a (i 5) (i 6));
  Alcotest.(check int) "faa journals too" 10 (Mem.faa m b 7);
  Alcotest.(check bool) "journal grew" true (Mem.journal_depth m > 0);
  Mem.rewind m mk;
  Alcotest.check v "a restored" (i 0) (Mem.read m a);
  Alcotest.check v "b restored" (i 10) (Mem.read m b);
  Alcotest.(check int) "journal back to the mark" 0 (Mem.journal_depth m);
  Alcotest.(check bool) "restorations counted" true (Mem.rewound_cells m >= 3)

let test_rewind_restores_max_bits () =
  (* The journal must roll back the per-location high-water marks along
     with the contents — the same stale-accounting class of bug that
     [restore] had before bf9564b, now on the incremental path. *)
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 1) in
  Mem.set_journal m true;
  let mk = Mem.mark m in
  Alcotest.(check int) "baseline high-water" 1 (Mem.max_shared_bits m);
  Mem.write m a (i 255);
  Alcotest.(check int) "wide write raises it" 8 (Mem.max_shared_bits m);
  Mem.rewind m mk;
  Alcotest.(check int) "rewind rolls it back" 1 (Mem.max_shared_bits m);
  Alcotest.(check int) "per-loc mark rolls back too" 1 (Mem.max_bits_of m a);
  (* marks are positions, not snapshots: a mark taken after the wide
     write keeps the raised mark through deeper rewinds *)
  Mem.write m a (i 255);
  let mk8 = Mem.mark m in
  Mem.write m a (i 0);
  Mem.rewind m mk8;
  Alcotest.(check int) "inner rewind keeps the raised mark" 8
    (Mem.max_shared_bits m)

let test_journal_discipline () =
  let m = Mem.create () in
  let a = Mem.alloc m ~name:"a" ~kind:Loc.Shared (i 0) in
  (match Mem.mark m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mark must require journaling");
  Mem.set_journal m true;
  let mk = Mem.mark m in
  Mem.write m a (i 1);
  let inner = Mem.mark m in
  Mem.rewind m mk;
  (* [inner] is now deeper than the log: stale, must be rejected *)
  (match Mem.rewind m inner with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "stale (non-LIFO) mark must be rejected");
  (* allocations since a mark make it unrewindable *)
  let mk2 = Mem.mark m in
  ignore (Mem.alloc m ~name:"late" ~kind:Loc.Shared (i 0));
  (match Mem.rewind m mk2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "rewinding past an allocation must be rejected");
  (* turning the journal off invalidates everything *)
  Mem.set_journal m false;
  match Mem.rewind m mk with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "rewind must require journaling"

let prop_mark_rewind_roundtrip =
  QCheck.Test.make ~name:"mark/rewind roundtrip (values + max_bits)"
    ~count:Test_support.qcheck_count
    QCheck.(
      pair
        (list (pair (int_bound 9) small_signed_int))
        (list (pair (int_bound 9) small_signed_int)))
    (fun (before, after) ->
      let m = Mem.create () in
      let locs =
        Array.init 10 (fun k ->
            Mem.alloc m ~name:(Printf.sprintf "l%d" k) ~kind:Loc.Shared (i 0))
      in
      Mem.set_journal m true;
      List.iter (fun (k, x) -> Mem.write m locs.(k) (i x)) before;
      let reference = Mem.snapshot m in
      let max_bits_ref = Mem.max_shared_bits m in
      let mk = Mem.mark m in
      List.iter (fun (k, x) -> Mem.write m locs.(k) (i x)) after;
      Mem.rewind m mk;
      Mem.equal_full (Mem.snapshot m) reference
      && Mem.max_shared_bits m = max_bits_ref)

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot/restore roundtrip"
    ~count:Test_support.qcheck_count
    QCheck.(list (pair (int_bound 9) small_signed_int))
    (fun writes ->
      let m = Mem.create () in
      let locs =
        Array.init 10 (fun k ->
            Mem.alloc m ~name:(Printf.sprintf "l%d" k) ~kind:Loc.Shared (i 0))
      in
      let snap0 = Mem.snapshot m in
      List.iter (fun (k, x) -> Mem.write m locs.(k) (i x)) writes;
      let snap1 = Mem.snapshot m in
      Mem.restore m snap0;
      let back0 = Mem.equal_full (Mem.snapshot m) snap0 in
      Mem.restore m snap1;
      let back1 = Mem.equal_full (Mem.snapshot m) snap1 in
      back0 && back1)

(* --- arena/journal growth discipline (ISSUE 8) ------------------- *)

(* the cell arena grows by doubling from any starting capacity; growth
   must be invisible to reads, initial values and space accounting *)
let test_arena_growth_from_one () =
  let m = Mem.create ~capacity:1 () in
  let locs =
    List.init 150 (fun k ->
        Mem.alloc m ~name:(Printf.sprintf "g%d" k) ~kind:Loc.Shared (i k))
  in
  Alcotest.(check int) "n_locs" 150 (Mem.n_locs m);
  List.iteri
    (fun k loc ->
      Alcotest.check v "kept value" (i k) (Mem.read m loc);
      Alcotest.(check bool) "loc_by_id inverse" true (Mem.loc_by_id m k == loc))
    locs

(* mark/rewind round-trips byte-identically across the journal's
   capacity-doubling boundaries: values, high-water marks and the live
   fingerprint accumulators must all come back *)
let prop_journal_growth_roundtrip =
  QCheck.Test.make
    ~name:"mark/rewind roundtrip across journal growth boundaries"
    ~count:Test_support.qcheck_count
    QCheck.(pair (int_bound 300) (int_bound 300))
    (fun (n_before, n_after) ->
      (* capacity:1 forces the cell arena to double during allocation;
         the journal arrays start empty and double under the writes *)
      let m = Mem.create ~capacity:1 () in
      let locs =
        Array.init 7 (fun k ->
            Mem.alloc m ~name:(Printf.sprintf "l%d" k) ~kind:Loc.Shared (i 0))
      in
      let prng = Dtc_util.Prng.create 99 in
      let mutate step =
        let k = Dtc_util.Prng.int prng 7 in
        let x = Dtc_util.Prng.int prng 1024 in
        match step mod 3 with
        | 0 -> Mem.write m locs.(k) (i x)
        | 1 ->
            let cur = Mem.read m locs.(k) in
            ignore (Mem.cas m locs.(k) cur (i x) : bool)
        | _ -> ignore (Mem.faa m locs.(k) (x - 512) : int)
      in
      Mem.set_journal m true;
      for s = 1 to n_before do mutate s done;
      let reference = Mem.snapshot m in
      let bits_ref = Mem.max_shared_bits m in
      let fa_ref, fb_ref = Mem.live_fingerprint_full m in
      let mk = Mem.mark m in
      for s = 1 to n_after do mutate s done;
      Mem.rewind m mk;
      Mem.equal_full (Mem.snapshot m) reference
      && Mem.max_shared_bits m = bits_ref
      && Mem.live_fingerprint_full m = (fa_ref, fb_ref))

(* the incremental (journal-on) fingerprint accumulators must agree with
   the journal-off full scan, and with the snapshot digest, at any point
   in any mutation history *)
let prop_live_fingerprint_consistent =
  QCheck.Test.make
    ~name:"live fingerprints: accumulators = scan = snapshot digest"
    ~count:Test_support.qcheck_count
    QCheck.(list (pair (int_bound 9) small_signed_int))
    (fun writes ->
      let m = Mem.create ~capacity:2 () in
      let locs =
        Array.init 10 (fun k ->
            let kind = if k mod 3 = 2 then Loc.Private 0 else Loc.Shared in
            Mem.alloc m ~name:(Printf.sprintf "l%d" k) ~kind (i 0))
      in
      Mem.set_journal m true;
      List.iter (fun (k, x) -> Mem.write m locs.(k) (i x)) writes;
      let live_shared = Mem.live_fingerprint_shared m in
      let live_full = (Mem.live_full_a m, Mem.live_full_b m) in
      let snap_shared = Mem.fingerprint_shared (Mem.snapshot m) in
      (* dropping the journal switches the live reads to the scan path
         without touching contents *)
      Mem.set_journal m false;
      Mem.live_fingerprint_shared m = live_shared
      && Mem.live_fingerprint_full m = live_full
      && live_shared = snap_shared)

(* --- fault-spec parser: total, and strict about its spellings --- *)

let test_fault_spellings () =
  let ok s expected =
    match Fault_model.of_string s with
    | Ok f ->
        Alcotest.(check string) s expected (Fault_model.to_string f)
    | Error m -> Alcotest.failf "%S rejected: %s" s m
  in
  ok "atomic" "atomic";
  ok " Reorder " "reorder";
  ok "drop" "drop(keep=0.50)";
  ok "drop:0.7" "drop(keep=0.70)";
  ok "drop=0.7" "drop(keep=0.70)";
  ok "drop(keep=0.25)" "drop(keep=0.25)";
  ok "torn" "torn(g=1)";
  ok "torn:3" "torn(g=3)";
  ok "torn=3" "torn(g=3)";
  ok "torn(g=2)" "torn(g=2)";
  let bad s prefix =
    match Fault_model.of_string s with
    | Ok f -> Alcotest.failf "%S parsed as %s" s (Fault_model.to_string f)
    | Error m ->
        Alcotest.(check bool) (s ^ ": " ^ m) true
          (String.starts_with ~prefix m)
  in
  (* separators are never stripped out of the number *)
  bad "torn:1:2" "bad torn granularity";
  bad "torn)3" "bad torn granularity";
  bad "torn(g=3" "bad torn granularity";
  bad "torn(k=3)" "bad torn granularity";
  bad "torn:0" "bad torn granularity";
  bad "drop:0.:5" "bad drop keep probability";
  bad "drop(keep=0.5))" "bad drop keep probability";
  bad "drop:1.5" "bad drop keep probability";
  bad "drop:" "bad drop keep probability";
  bad "atomic:1" "unknown fault model";
  bad "" "unknown fault model"

let gen_fault =
  QCheck.Gen.(
    oneof
      [
        return Fault_model.Atomic;
        return Fault_model.Reorder;
        map (fun k -> Fault_model.Drop { keep_prob = float_of_int k /. 100. })
          (int_bound 100);
        map (fun g -> Fault_model.Torn { granularity = g }) (int_range 1 64);
      ])

(* [to_string] output and the "name:X" shorthand, each followed by a
   separator character and arbitrary digits: never a valid spelling *)
let prop_fault_spec_total =
  QCheck.Test.make ~name:"fault spec: to_string round-trips, garbage errs"
    ~count:300
    QCheck.(
      make
        ~print:(fun (f, short, sep, tail) ->
          Printf.sprintf "%s %b %C %S" (Fault_model.to_string f) short sep tail)
        Gen.(
          quad gen_fault bool (oneofl [ ':'; ')'; '('; '='; ',' ])
            (string_size ~gen:numeral (int_bound 3))))
    (fun (f, short, sep, tail) ->
      let canon = Fault_model.to_string f in
      let round =
        match Fault_model.of_string canon with
        | Ok f' -> Fault_model.to_string f' = canon
        | Error _ -> false
      in
      let base =
        match f with
        | Fault_model.Drop { keep_prob } when short ->
            Printf.sprintf "drop:%g" keep_prob
        | Fault_model.Torn { granularity } when short ->
            Printf.sprintf "torn:%d" granularity
        | _ -> canon
      in
      let garbled = base ^ String.make 1 sep ^ tail in
      round
      &&
      match Fault_model.of_string garbled with
      | Error _ -> true
      | Ok _ -> false
      | exception _ -> false)

let suites =
  [
    ( "nvm.mem",
      [
        Alcotest.test_case "alloc/read/write" `Quick test_alloc_read_write;
        Alcotest.test_case "growth" `Quick test_many_allocs;
        Alcotest.test_case "cas" `Quick test_cas;
        Alcotest.test_case "faa" `Quick test_faa;
        Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
        Alcotest.test_case "restore rolls back footprint high-water" `Quick
          test_restore_rolls_back_max_bits;
        Alcotest.test_case "memory-equivalence" `Quick
          test_equal_shared_ignores_private;
        Alcotest.test_case "footprint accounting" `Quick test_footprint;
        Alcotest.test_case "foreign loc rejected" `Quick
          test_foreign_loc_rejected;
        Alcotest.test_case "journal mark/rewind" `Quick test_mark_rewind_basic;
        Alcotest.test_case "rewind restores max_bits high-water" `Quick
          test_rewind_restores_max_bits;
        Alcotest.test_case "journal mark discipline" `Quick
          test_journal_discipline;
        QCheck_alcotest.to_alcotest prop_mark_rewind_roundtrip;
        QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
        Alcotest.test_case "arena growth from capacity 1" `Quick
          test_arena_growth_from_one;
        QCheck_alcotest.to_alcotest prop_journal_growth_roundtrip;
        QCheck_alcotest.to_alcotest prop_live_fingerprint_consistent;
      ] );
    ( "nvm.cache",
      [
        Alcotest.test_case "read-through" `Quick test_cache_read_through;
        Alcotest.test_case "writes volatile until persist" `Quick
          test_cache_write_not_persistent;
        Alcotest.test_case "crash write-back mask" `Quick test_cache_crash_drops;
        Alcotest.test_case "cas/faa in cache" `Quick test_cache_cas_faa;
        Alcotest.test_case "dirty tracking" `Quick test_cache_dirty_tracking;
        Alcotest.test_case "entries deterministic (id-sorted)" `Quick
          test_cache_entries_deterministic;
        Alcotest.test_case "faulted crash: atomic keeps all, draw-free"
          `Quick test_crash_faulted_atomic_keeps_all;
        Alcotest.test_case "faulted crash: drop extremes" `Quick
          test_crash_faulted_drop_extremes;
        Alcotest.test_case "faulted crash: deterministic, old-or-new" `Quick
          test_crash_faulted_deterministic;
        Alcotest.test_case "faulted crash: torn tears tuples" `Quick
          test_crash_faulted_torn_tears_tuples;
        Alcotest.test_case "fault spec spellings" `Quick test_fault_spellings;
        QCheck_alcotest.to_alcotest prop_fault_spec_total;
      ] );
  ]
