(* Sym's value digests against their reference definitions (ref_sym.ml),
   and the allocation-free contract of the two the explorer calls at
   every canonically keyed node. *)

open Nvm
module Sym = Modelcheck.Sym

(* the same constructors with fresh scalar payloads: an entry that
   shares [v]'s skeleton, so a length-n tuple of them is a vector *)
let rec revalue v st =
  let open QCheck.Gen in
  match (v : Value.t) with
  | Value.Bool _ -> Value.Bool (bool st)
  | Value.Int _ -> Value.Int (int_range (-3) 300 st)
  | Value.Str _ -> Value.Str (string_size ~gen:printable (int_bound 3) st)
  | Value.Tup a -> Value.Tup (Array.map (fun x -> revalue x st) a)
  | Value.Unit | Value.Bot -> v

(* Algorithm 2's C = (value, flip-vector) *)
let c_word value flips =
  Value.pair value (Value.Tup (Array.map (fun b -> Value.Bool b) flips))

let gen_value ~n =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Value.Unit;
        return Value.Bot;
        map (fun b -> Value.Bool b) bool;
        map (fun k -> Value.Int k) (int_range (-3) 300);
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_bound 3));
      ]
  in
  fix
    (fun self d ->
      if d = 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (* a pid-indexed vector: n entries of one skeleton *)
            ( 3,
              self (d - 1) >>= fun e ->
              map (fun rest -> Value.Tup (Array.of_list (e :: rest)))
                (list_repeat (n - 1) (revalue e)) );
            (* any tuple: length n with mixed skeletons is not a vector *)
            ( 2,
              map (fun xs -> Value.Tup (Array.of_list xs))
                (list_size (int_bound (n + 1)) (self (d - 1))) );
            ( 2,
              map2 (fun v flips -> c_word v flips) (self (d - 1))
                (array_repeat n bool) );
          ])
    3

let gen_case =
  let open QCheck.Gen in
  int_range 1 5 >>= fun n ->
  map4
    (fun pid inv seed v -> (n, pid, Array.of_list inv, seed, v))
    (int_bound (n - 1))
    (shuffle_l (List.init n Fun.id))
    (int_bound 1000) (gen_value ~n)

let print_case (n, pid, inv, seed, v) =
  Printf.sprintf "n=%d pid=%d inv=[%s] seed=%d v=%s" n pid
    (String.concat ";" (Array.to_list (Array.map string_of_int inv)))
    seed (Value.to_string v)

let prop_sym_matches_reference =
  QCheck.Test.make ~name:"Sym digests = reference definitions"
    ~count:(4 * Test_support.qcheck_count)
    (QCheck.make ~print:print_case gen_case)
    (fun (n, pid, inv, seed, v) ->
      Sym.skel ~n v = Ref_sym.skel ~n v
      && Sym.shape ~n ~seed v = Ref_sym.shape ~n ~seed v
      && Sym.slice ~n ~pid ~seed v = Ref_sym.slice ~n ~pid ~seed v
      && Sym.self_key ~n ~pid ~seed v = Ref_sym.self_key ~n ~pid ~seed v
      && Sym.hash_perm ~n ~inv ~seed v = Ref_sym.hash_perm ~n ~inv ~seed v)

(* The explorer calls [hash_perm] and [self_key] on every cell and log
   entry of every canonically keyed node: on Algorithm 2's C word they
   must not allocate at all. *)
let test_digests_allocation_free () =
  let n = 5 in
  let c = c_word (Value.Int 3) [| true; false; false; true; false |] in
  let inv = [| 3; 0; 4; 1; 2 |] in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for k = 1 to 1000 do
    sink := !sink lxor Sym.hash_perm ~n ~inv ~seed:7 c;
    sink := !sink lxor Sym.self_key ~n ~pid:(k mod n) ~seed:5 c
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink : int);
  Alcotest.(check (float 0.)) "minor words over 1000 calls of each" 0. words

let suites =
  [
    ( "modelcheck.sym",
      [
        QCheck_alcotest.to_alcotest prop_sym_matches_reference;
        Alcotest.test_case "hash_perm/self_key allocation-free" `Quick
          test_digests_allocation_free;
      ] );
  ]
