open Nvm

(* 62 bits per word keeps every word non-negative (OCaml ints are
   63-bit). *)
let word_bits = 62

type t =
  | Small of int  (* indices 0..61 — the overwhelmingly common case *)
  | Big of int array  (* word [k] holds indices [k*62 .. k*62+61] *)

let empty = Small 0

(* [Small w] and [Big [| w; 0; ... |]] denote the same set: a [Big] is
   never demoted, so every observation below must be length-blind. *)
let nwords = function Small _ -> 1 | Big a -> Array.length a

let word t i =
  match t with
  | Small w -> if i = 0 then w else 0
  | Big a -> if i < Array.length a then a.(i) else 0

let mem t i =
  if i < 0 then invalid_arg "Bitset.mem: negative index";
  word t (i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let set t i =
  if i < 0 then invalid_arg "Bitset.set: negative index";
  match t with
  | Small w when i < word_bits -> Small (w lor (1 lsl i))
  | _ ->
      let wi = i / word_bits in
      let n = max (nwords t) (wi + 1) in
      let a = Array.init n (word t) in
      a.(wi) <- a.(wi) lor (1 lsl (i mod word_bits));
      Big a

(* Every binary operation below dispatches on [Small, Small] first: both
   operands in one word means pure integer arithmetic — no array, no
   closure.  [union] additionally returns a physical operand
   whenever the result equals it (the common case for the checker's
   monotone lin-sets), so the fast path allocates nothing at all; only a
   genuinely new [Small] word pays its 2-word constructor block. *)

let union a b =
  match (a, b) with
  | Small x, Small y ->
      if x lor y = x then a else if x lor y = y then b else Small (x lor y)
  | _ ->
      let n = max (nwords a) (nwords b) in
      Big (Array.init n (fun i -> word a i lor word b i))

let subset a b =
  match (a, b) with
  | Small x, Small y -> x land lnot y = 0
  | _ ->
      let n = max (nwords a) (nwords b) in
      let rec go i =
        i >= n || (word a i land lnot (word b i) = 0 && go (i + 1))
      in
      go 0

let equal a b =
  match (a, b) with
  | Small x, Small y -> x = y
  | _ ->
      let n = max (nwords a) (nwords b) in
      let rec go i = i >= n || (word a i = word b i && go (i + 1)) in
      go 0

(* Representation-independent: trailing zero words contribute nothing, a
   nonzero word contributes (index, word), so [Small w] and any
   zero-padded [Big] of the same set hash identically. *)
let hash t =
  match t with
  | Small w -> if w = 0 then 0 else Value.mix 0 w
  | Big a ->
      let h = ref 0 in
      Array.iteri (fun i w -> if w <> 0 then h := Value.mix !h (Value.mix i w)) a;
      !h
