type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy g = { state = g.state }

(* splitmix64 finaliser (Steele, Lea & Flood). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* splitmix64 output function: advance by the golden gamma, then mix. *)
let next_int64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

(* Rejection sampling over 62-bit draws: a bare [r mod bound] skews low
   residues whenever [bound] does not divide 2^62.  Draws at or above the
   largest multiple of [bound] below 2^62 are rejected and redrawn, so
   every residue class is hit by exactly the same number of accepted
   draws.  The rejection probability is (2^62 mod bound) / 2^62 — for the
   small bounds schedules use it is essentially zero, so the stream is
   unchanged in practice and each call still costs one draw. *)
let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* keep 62 bits so the conversion to OCaml's 63-bit int stays positive;
     2^62 itself is unrepresentable (max_int = 2^62 - 1), so the cutoff is
     phrased as r <= max_int - (2^62 mod bound) *)
  let excess = ((max_int mod bound) + 1) mod bound in
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2) in
    if excess = 0 || r <= max_int - excess then r mod bound else draw ()
  in
  draw ()

let bool g = Int64.logand (next_int64 g) 1L = 1L

let float g =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let pick g = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | xs -> List.nth xs (int g (List.length xs))

let shuffle g xs =
  for i = Array.length xs - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let split g =
  let seed = next_int64 g in
  { state = seed }

(* The [index]-th raw output of a generator with counter state [root] is
   [mix (root + (index+1) * gamma)], so any child stream of a root seed
   can be derived in O(1) without advancing a shared generator.  This is
   the determinism backbone of the torture engine: which worker runs a
   trial, and when, never touches the per-trial streams. *)
let stream root ~index =
  if index < 0 then invalid_arg "Prng.stream: index must be non-negative";
  let raw =
    mix
      (Int64.add (Int64.of_int root)
         (Int64.mul golden_gamma (Int64.of_int (index + 1))))
  in
  { state = raw }

let stream_seed root ~index =
  Int64.to_int (Int64.shift_right_logical (stream root ~index).state 2)
