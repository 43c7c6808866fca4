(* Tests for Nvm.Value: equality, ordering, hashing, bit accounting,
   tuple accessors and the cached digests of [Value.hc_of]. *)

open Nvm

let v = Test_support.value_testable

(* Generator for random values, depth-bounded. *)
let value_gen =
  let open QCheck.Gen in
  sized_size (int_bound 3) (fix (fun self n ->
      if n = 0 then
        oneof
          [
            return Value.Unit;
            return Value.Bot;
            map (fun b -> Value.Bool b) bool;
            map (fun i -> Value.Int i) small_signed_int;
            map (fun s -> Value.Str s) (string_size (int_bound 6));
          ]
      else
        frequency
          [
            (3, self 0);
            ( 1,
              map
                (fun xs -> Value.Tup (Array.of_list xs))
                (list_size (int_bound 4) (self (n - 1))) );
          ]))

let arb_value = QCheck.make ~print:Value.to_string value_gen

let test_equal_basic () =
  Alcotest.check v "int" (Value.Int 3) (Value.Int 3);
  Alcotest.(check bool) "int/bool differ" false
    (Value.equal (Value.Int 1) (Value.Bool true));
  Alcotest.(check bool) "tuples" true
    (Value.equal
       (Value.triple (Value.Int 1) (Value.Bool true) Value.Bot)
       (Value.triple (Value.Int 1) (Value.Bool true) Value.Bot));
  Alcotest.(check bool) "tuple length matters" false
    (Value.equal (Value.pair (Value.Int 1) (Value.Int 2)) (Value.Tup [| Value.Int 1 |]))

let test_bits () =
  Alcotest.(check int) "bool" 1 (Value.bits (Value.Bool true));
  Alcotest.(check int) "unit" 0 (Value.bits Value.Unit);
  Alcotest.(check int) "bot" 1 (Value.bits Value.Bot);
  Alcotest.(check int) "int 0" 1 (Value.bits (Value.Int 0));
  Alcotest.(check int) "int 1" 1 (Value.bits (Value.Int 1));
  Alcotest.(check int) "int 7" 3 (Value.bits (Value.Int 7));
  Alcotest.(check int) "int 8" 4 (Value.bits (Value.Int 8));
  Alcotest.(check int) "string" 24 (Value.bits (Value.Str "abc"));
  Alcotest.(check int) "tuple sums" 4
    (Value.bits (Value.pair (Value.Int 7) (Value.Bool false)))

let test_bool_vec () =
  let vec = Value.bool_vec 4 in
  Alcotest.(check int) "4 bits" 4 (Value.bits vec);
  for k = 0 to 3 do
    Alcotest.check v "all false" (Value.Bool false) (Value.nth vec k)
  done

let test_accessors () =
  Alcotest.(check int) "to_int" 42 (Value.to_int (Value.Int 42));
  Alcotest.(check bool) "to_bool" true (Value.to_bool (Value.Bool true));
  Alcotest.(check string) "to_str" "x" (Value.to_str (Value.Str "x"));
  let t = Value.triple (Value.Int 1) (Value.Int 2) (Value.Int 3) in
  Alcotest.check v "nth 1" (Value.Int 2) (Value.nth t 1);
  let t' = Value.set_nth t 1 (Value.Int 9) in
  Alcotest.check v "set_nth result" (Value.Int 9) (Value.nth t' 1);
  Alcotest.check v "set_nth preserves original" (Value.Int 2) (Value.nth t 1)

let test_accessor_errors () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Value.to_int (Value.Bool true));
  expect_invalid (fun () -> Value.to_bool Value.Bot);
  expect_invalid (fun () -> Value.nth (Value.Int 1) 0);
  expect_invalid (fun () -> Value.nth (Value.pair Value.Bot Value.Bot) 5);
  expect_invalid (fun () -> Value.set_nth (Value.Int 1) 0 Value.Bot)

let prop_equal_refl =
  QCheck.Test.make ~name:"equal is reflexive" ~count:Test_support.qcheck_count
    arb_value (fun x -> Value.equal x x)

let prop_compare_consistent =
  QCheck.Test.make ~name:"compare = 0 iff equal"
    ~count:Test_support.qcheck_count
    QCheck.(pair arb_value arb_value)
    (fun (x, y) -> Value.equal x y = (Value.compare x y = 0))

let prop_compare_antisym =
  QCheck.Test.make ~name:"compare antisymmetric"
    ~count:Test_support.qcheck_count
    QCheck.(pair arb_value arb_value)
    (fun (x, y) -> Value.compare x y = -Value.compare y x)

let prop_hash_consistent =
  QCheck.Test.make ~name:"equal values hash equal"
    ~count:Test_support.qcheck_count
    QCheck.(pair arb_value arb_value)
    (fun (x, y) ->
      (not (Value.equal x y)) || Value.hash x = Value.hash y)

let prop_set_nth_roundtrip =
  QCheck.Test.make ~name:"set_nth/nth roundtrip"
    ~count:Test_support.qcheck_count
    QCheck.(triple arb_value (int_bound 3) arb_value)
    (fun (t, k, x) ->
      match t with
      | Value.Tup xs when k < Array.length xs ->
          Value.equal (Value.nth (Value.set_nth t k x) k) x
      | _ -> QCheck.assume_fail ())

(* --- values with cached digests --- *)

let test_constants_shared () =
  (* the small immediates come back as one preallocated node each *)
  List.iter
    (fun (name, x) ->
      Alcotest.(check bool) name true (Value.hc_of x == Value.hc_of x))
    [
      ("unit", Value.Unit);
      ("bot", Value.Bot);
      ("true", Value.Bool true);
      ("false", Value.Bool false);
      ("int 0", Value.Int 0);
      ("int 255", Value.Int 255);
    ];
  Alcotest.(check int) "constant's cached bits" 8
    (Value.hc_of (Value.Int 255)).Value.bits;
  (* any other value is a fresh node: equal values built apart are equal
     but not shared *)
  let x = Value.pair (Value.Int 3) (Value.Str "ab") in
  let y = Value.pair (Value.Int 3) (Value.Str "ab") in
  let hx = Value.hc_of x and hy = Value.hc_of y in
  Alcotest.(check bool) "fresh nodes are distinct" false (hx == hy);
  Alcotest.(check bool) "hc_equal" true (Value.hc_equal hx hy);
  let hz = Value.hc_of (Value.pair (Value.Int 4) (Value.Str "ab")) in
  Alcotest.(check bool) "different values differ" false
    (Value.hc_equal hx hz)

let test_hc_stats_move () =
  let c0, f0 = Value.hc_stats () in
  ignore (Value.hc_of (Value.Int 7));
  let c1, f1 = Value.hc_stats () in
  Alcotest.(check int) "a constant counts as constant" (c0 + 1) c1;
  Alcotest.(check int) "and not as fresh" f0 f1;
  ignore (Value.hc_of (Value.Str "hc-stats-probe"));
  ignore (Value.hc_of (Value.Int 256));
  let c2, f2 = Value.hc_stats () in
  Alcotest.(check int) "other values count as fresh" (f1 + 2) f2;
  Alcotest.(check int) "and not as constant" c1 c2

let prop_hc_equal_iff_equal =
  QCheck.Test.make ~name:"hc_equal iff structurally equal"
    ~count:Test_support.qcheck_count
    QCheck.(pair arb_value arb_value)
    (fun (x, y) ->
      Value.hc_equal (Value.hc_of x) (Value.hc_of y) = Value.equal x y)

let rec deep_copy = function
  | Value.Tup xs -> Value.Tup (Array.map deep_copy xs)
  | Value.Str s -> Value.Str (String.init (String.length s) (String.get s))
  | v -> v

let prop_digests_fixed =
  QCheck.Test.make ~name:"digests are value-determined"
    ~count:Test_support.qcheck_count arb_value (fun x ->
      (* digest a physically distinct structural copy: the cached
         digests and bit width must depend only on the value *)
      let h1 = Value.hc_of x and h2 = Value.hc_of (deep_copy x) in
      h1.Value.da = h2.Value.da
      && h1.Value.db = h2.Value.db
      && h1.Value.bits = h2.Value.bits
      && h1.Value.bits = Value.bits x)

let prop_bits_nonneg =
  QCheck.Test.make ~name:"bits >= 0" ~count:Test_support.qcheck_count arb_value
    (fun x -> Value.bits x >= 0)

let suites =
  [
    ( "nvm.value",
      [
        Alcotest.test_case "equal basics" `Quick test_equal_basic;
        Alcotest.test_case "bit accounting" `Quick test_bits;
        Alcotest.test_case "bool_vec" `Quick test_bool_vec;
        Alcotest.test_case "accessors" `Quick test_accessors;
        Alcotest.test_case "accessor errors" `Quick test_accessor_errors;
        QCheck_alcotest.to_alcotest prop_equal_refl;
        QCheck_alcotest.to_alcotest prop_compare_consistent;
        QCheck_alcotest.to_alcotest prop_compare_antisym;
        QCheck_alcotest.to_alcotest prop_hash_consistent;
        QCheck_alcotest.to_alcotest prop_set_nth_roundtrip;
        QCheck_alcotest.to_alcotest prop_bits_nonneg;
        Alcotest.test_case "constant nodes are shared" `Quick
          test_constants_shared;
        Alcotest.test_case "hc_of constant/fresh counters" `Quick
          test_hc_stats_move;
        QCheck_alcotest.to_alcotest prop_hc_equal_iff_equal;
        QCheck_alcotest.to_alcotest prop_digests_fixed;
      ] );
  ]
