type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Tup of t array
  | Bot

let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Unit, Unit | Bot, Bot -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Tup x, Tup y ->
      let n = Array.length x in
      n = Array.length y
      &&
      let rec go i = i >= n || (equal x.(i) y.(i) && go (i + 1)) in
      go 0
  | (Unit | Bool _ | Int _ | Str _ | Tup _ | Bot), _ -> false

(* 63-bit avalanche combine (xor-multiply-shift, splitmix-style).  The
   model checker keys its visited-set on chains of [mix], so the mixer
   must spread single-bit input differences across the whole word. *)
let mix h x =
  let h = h lxor x in
  let h = h * 0x9E3779B97F4A7C1 in
  let h = h lxor (h lsr 29) in
  let h = h * 0xBF58476D1CE4E5B in
  h lxor (h lsr 32)

let rec hash_seeded seed v =
  match v with
  | Unit -> mix seed 17
  | Bot -> mix seed 31
  | Bool b -> mix seed (if b then 83 else 97)
  | Int n -> mix (mix seed 2) n
  | Str s -> mix (mix seed 3) (String.hash s)
  | Tup xs -> Array.fold_left hash_seeded (mix seed 4099) xs

let rec pp fmt = function
  | Unit -> Format.fprintf fmt "()"
  | Bot -> Format.fprintf fmt "⊥"
  | Bool b -> Format.fprintf fmt "%b" b
  | Int n -> Format.fprintf fmt "%d" n
  | Str s -> Format.fprintf fmt "%S" s
  | Tup xs ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_array ~pp_sep:(fun f () -> Format.fprintf f ", ") pp)
        xs

let to_string v = Format.asprintf "%a" pp v

let int_bits n =
  let n = abs n in
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  max 1 (go 0 n)

let rec bits = function
  | Unit -> 0
  | Bot -> 1
  | Bool _ -> 1
  | Int n -> int_bits n
  | Str s -> 8 * String.length s
  | Tup xs -> Array.fold_left (fun acc x -> acc + bits x) 0 xs

let pair a b = Tup [| a; b |]
let triple a b c = Tup [| a; b; c |]
let bool_vec n = Tup (Array.make n (Bool false))

let type_error expected v =
  invalid_arg
    (Printf.sprintf "Value: expected %s, got %s" expected (to_string v))

let to_bool = function Bool b -> b | v -> type_error "bool" v
let to_int = function Int n -> n | v -> type_error "int" v
let to_str = function Str s -> s | v -> type_error "string" v
let to_tup = function Tup xs -> xs | v -> type_error "tuple" v

let nth v i =
  match v with
  | Tup xs when i >= 0 && i < Array.length xs -> xs.(i)
  | v -> type_error (Printf.sprintf "tuple with component %d" i) v

let set_nth v i x =
  match v with
  | Tup xs when i >= 0 && i < Array.length xs ->
      let ys = Array.copy xs in
      ys.(i) <- x;
      Tup ys
  | v -> type_error (Printf.sprintf "tuple with component %d" i) v

(* ------------------------------------------------------------------ *)
(* Values with cached digests.

   The undo-engine's hot loop fingerprints whole configurations and
   the space accounting sizes every write, so the values that live in
   memory cells carry their two fixed-seed fingerprint half-digests
   (used by [Mem]'s fingerprints) and their bit width, computed once
   when the value is built.  There is no table behind [hc_of]: a fresh
   value gets a fresh node, so nothing outlives the cells and checker
   states that hold it.  The digest seeds are fixed (below), so the
   digests of a value are the same in every process. *)

type hc = { node : t; da : int; db : int; bits : int }

(* Distinct from Mem's chain seeds; only the per-value digests matter,
   the chain seeds stay in Mem. *)
let digest_seed_a = 0x71C94A2F3E609D1
let digest_seed_b = 0x2B992DDFA23249D

let mk_hc v =
  {
    node = v;
    da = hash_seeded digest_seed_a v;
    db = hash_seeded digest_seed_b v;
    bits = bits v;
  }

(* Tiny immediate values dominate cell traffic (counters, toggles,
   process ids), so each gets one preallocated node, shared by every
   [hc_of] call: no digest walk, no allocation. *)
let small_int_cache_size = 256
let small_int = Array.init small_int_cache_size (fun i -> mk_hc (Int i))
let c_unit = mk_hc Unit
let c_bot = mk_hc Bot
let c_true = mk_hc (Bool true)
let c_false = mk_hc (Bool false)

(* Process-wide call counters, in plain module state: nothing runs on a
   second domain (parallel torture uses worker processes). *)
let constants = ref 0
let fresh = ref 0

let hc_of v =
  match v with
  | Int n when n >= 0 && n < small_int_cache_size ->
      incr constants;
      small_int.(n)
  | Unit ->
      incr constants;
      c_unit
  | Bot ->
      incr constants;
      c_bot
  | Bool b ->
      incr constants;
      if b then c_true else c_false
  | _ ->
      incr fresh;
      mk_hc v

let hc_equal a b = a == b || (a.da = b.da && equal a.node b.node)

let hc_stats () = (!constants, !fresh)
