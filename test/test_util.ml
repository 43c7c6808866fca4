(* Tests for Dtc_util: the deterministic PRNG and the table printer. *)

open Dtc_util

let test_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_distinct_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Prng.create 3 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  let xa = Prng.next_int64 a and xb = Prng.next_int64 b in
  Alcotest.(check int64) "copy continues the same stream" xa xb;
  ignore (Prng.next_int64 a);
  (* advancing a must not advance b *)
  let xa' = Prng.next_int64 a and xb' = Prng.next_int64 b in
  Alcotest.(check bool) "independent afterwards" true (xa' <> xb' || xa' = xb')

let test_split_independent () =
  let a = Prng.create 11 in
  let b = Prng.split a in
  let xs = List.init 32 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 32 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      let x = Prng.int g bound in
      x >= 0 && x < bound)

let prop_float_in_unit =
  QCheck.Test.make ~name:"Prng.float in [0, 1)" ~count:500 QCheck.small_int
    (fun seed ->
      let g = Prng.create seed in
      let x = Prng.float g in
      x >= 0.0 && x < 1.0)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"Prng.shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let g = Prng.create seed in
      let arr = Array.of_list xs in
      Prng.shuffle g arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let prop_pick_member =
  QCheck.Test.make ~name:"Prng.pick returns a member" ~count:500
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      QCheck.assume (xs <> []);
      let g = Prng.create seed in
      List.mem (Prng.pick g xs) xs)

let test_int_rejects_nonpositive () =
  let g = Prng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_int_distribution () =
  (* [Prng.int] draws by rejection sampling, so residues must land near
     uniform even for bounds that do not divide the generator's range.  With
     60_000 draws over 7 buckets the expected count per bucket is ~8571; a
     +/-5% band is ~27 standard deviations, so a deterministic seed passing
     once will keep passing unless the sampler regresses to a biased mod. *)
  let g = Prng.create 42 in
  let bound = 7 and draws = 60_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to draws do
    let x = Prng.int g bound in
    counts.(x) <- counts.(x) + 1
  done;
  let expected = float_of_int draws /. float_of_int bound in
  Array.iteri
    (fun k c ->
      let dev = abs_float (float_of_int c -. expected) /. expected in
      if dev > 0.05 then
        Alcotest.failf "bucket %d has %d draws (%.1f%% off uniform)" k c
          (100.0 *. dev))
    counts

let test_int_large_bound_unbiased_tail () =
  (* A bound just above half the positive range makes the naive [r mod bound]
     visibly biased (low residues would be twice as likely); rejection
     sampling must still return values across the whole interval. *)
  let g = Prng.create 9 in
  let bound = (max_int / 2) + 2 in
  let high = ref 0 in
  for _ = 1 to 2_000 do
    let x = Prng.int g bound in
    if x < 0 || x >= bound then Alcotest.fail "out of range";
    if x > bound / 2 then incr high
  done;
  (* under uniformity ~half the draws exceed bound/2; the biased mod would
     fold the upper range onto low residues and push this toward a quarter *)
  Alcotest.(check bool) "upper half populated" true (!high > 800)

let test_stream_matches_split_chain () =
  (* the determinism backbone of the torture engine:
     [stream root ~index:i] equals the i-th successive [split] of
     [create root], but is derived in O(1) without advancing a shared
     generator — so any worker can reconstruct any trial's stream *)
  let root = 12345 in
  let g = Prng.create root in
  for index = 0 to 31 do
    let via_split = Prng.split g in
    let via_stream = Prng.stream root ~index in
    for _ = 1 to 4 do
      Alcotest.(check int64)
        (Printf.sprintf "stream %d tracks the %d-th split" index index)
        (Prng.next_int64 via_split)
        (Prng.next_int64 via_stream)
    done
  done

let test_stream_independent_of_order () =
  (* drawing stream 7 before stream 3 yields the same streams as the
     reverse order — nothing is shared *)
  let a7 = Prng.stream 99 ~index:7 and a3 = Prng.stream 99 ~index:3 in
  let b3 = Prng.stream 99 ~index:3 and b7 = Prng.stream 99 ~index:7 in
  Alcotest.(check int64) "stream 3 stable" (Prng.next_int64 a3) (Prng.next_int64 b3);
  Alcotest.(check int64) "stream 7 stable" (Prng.next_int64 a7) (Prng.next_int64 b7);
  Alcotest.(check bool) "streams 3 and 7 differ" true
    (Prng.next_int64 (Prng.stream 99 ~index:3)
    <> Prng.next_int64 (Prng.stream 99 ~index:7))

let test_stream_seed_deterministic () =
  Alcotest.(check int) "stream_seed is a pure function"
    (Prng.stream_seed 4 ~index:11) (Prng.stream_seed 4 ~index:11);
  Alcotest.(check bool) "stream_seed non-negative" true
    (Prng.stream_seed 4 ~index:11 >= 0);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Prng.stream: index must be non-negative") (fun () ->
      ignore (Prng.stream 1 ~index:(-1)))

let test_table_render () =
  let t = Table.create ~title:"demo" [ "a"; "bb"; "ccc" ] in
  Table.add_row t [ "1"; "2"; "3" ];
  Table.add_row t [ "10"; "20"; "30" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  Alcotest.(check bool) "has row" true
    (let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
       go 0
     in
     contains s "10" && contains s "30")

let test_table_padding () =
  let t = Table.create ~title:"t" [ "col" ] in
  Table.add_row t [];
  (* shorter row padded *)
  Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0)

let test_table_too_many_cells () =
  let t = Table.create ~title:"t" [ "col" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "a"; "b" ])

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "distinct seeds" `Quick test_distinct_seeds;
        Alcotest.test_case "copy" `Quick test_copy_independent;
        Alcotest.test_case "split" `Quick test_split_independent;
        Alcotest.test_case "int rejects non-positive" `Quick
          test_int_rejects_nonpositive;
        Alcotest.test_case "int distribution near uniform" `Quick
          test_int_distribution;
        Alcotest.test_case "int unbiased at large bounds" `Quick
          test_int_large_bound_unbiased_tail;
        Alcotest.test_case "stream = successive splits" `Quick
          test_stream_matches_split_chain;
        Alcotest.test_case "stream order-independent" `Quick
          test_stream_independent_of_order;
        Alcotest.test_case "stream_seed" `Quick test_stream_seed_deterministic;
        QCheck_alcotest.to_alcotest prop_int_in_bounds;
        QCheck_alcotest.to_alcotest prop_float_in_unit;
        QCheck_alcotest.to_alcotest prop_shuffle_permutation;
        QCheck_alcotest.to_alcotest prop_pick_member;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "padding" `Quick test_table_padding;
        Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
      ] );
  ]
