(* The reference definitions of Sym's value digests: the straightforward
   [Array.map]/[fold_left] forms, kept as the oracle for the
   allocation-free loops in lib/modelcheck/sym.ml.  Every function here
   must return exactly what its Sym namesake returns. *)

open Nvm

let rec skel ~n v =
  match (v : Value.t) with
  | Value.Unit -> 1
  | Value.Bool _ -> 2
  | Value.Int _ -> 3
  | Value.Str _ -> 4
  | Value.Bot -> 5
  | Value.Tup a ->
      let ks = Array.map (skel ~n) a in
      if is_vec_skels ~n a ks then Value.mix 7 ks.(0)
      else Array.fold_left (fun h k -> Value.mix h k) 11 ks

and is_vec_skels ~n a ks =
  Array.length a = n && Array.for_all (fun k -> k = ks.(0)) ks

let is_vec ~n a = is_vec_skels ~n a (Array.map (skel ~n) a)

let rec shape ~n ~seed v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a -> Value.mix seed (Value.mix 0x5eed7 (skel ~n v))
  | Value.Tup a ->
      snd
        (Array.fold_left
           (fun (i, h) x -> (i + 1, Value.mix h (shape ~n ~seed:(seed + i) x)))
           (0, Value.mix seed 0x7ab1e) a)
  | v -> Value.hash_seeded seed v

and slice ~n ~pid ~seed v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a ->
      Value.mix 0x511ce
        (Value.mix (shape ~n ~seed a.(pid)) (slice ~n ~pid ~seed a.(pid)))
  | Value.Tup a ->
      snd
        (Array.fold_left
           (fun (i, h) x ->
             (i + 1, Value.mix h (slice ~n ~pid ~seed:(seed + i) x)))
           (0, Value.mix seed 0x7ab1e) a)
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Bot -> 0

let self_key ~n ~pid ~seed v =
  Value.mix (shape ~n ~seed v) (slice ~n ~pid ~seed v)

let rec hash_perm ~n ~inv ~seed v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a ->
      let h = ref (Value.mix seed 0x9ec70) in
      for r = 0 to n - 1 do
        h := Value.mix !h (hash_perm ~n ~inv ~seed a.(inv.(r)))
      done;
      !h
  | Value.Tup a ->
      snd
        (Array.fold_left
           (fun (i, h) x ->
             (i + 1, Value.mix h (hash_perm ~n ~inv ~seed:(seed + i) x)))
           (0, Value.mix seed 0x7ab1e) a)
  | v -> Value.hash_seeded seed v
