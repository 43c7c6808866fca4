type t =
  | Atomic
  | Drop of { keep_prob : float }
  | Torn of { granularity : int }
  | Reorder

type wipe =
  | Keep of (Loc.t -> bool)
  | Seeded of t * int

let default = Atomic
let keep_all = Keep (fun _ -> true)

let wipe fault ~seed =
  match fault with Atomic -> keep_all | _ -> Seeded (fault, seed ())

let to_string = function
  | Atomic -> "atomic"
  | Drop { keep_prob } -> Printf.sprintf "drop(keep=%.2f)" keep_prob
  | Torn { granularity } -> Printf.sprintf "torn(g=%d)" granularity
  | Reorder -> "reorder"


(* Accepts exactly the bare names, "name:X", "name=X" and [to_string]'s
   "name(key=X)", so the CLI, the checkpoint header and the report
   config all round-trip; any other spelling is an error, never a
   partial parse. *)
let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let has_prefix prefix = String.starts_with ~prefix s in
  (* the X of [s = name ^ ":X" | name ^ "=X" | name ^ "(key=X)"] *)
  let param ~name ~key =
    let after k = String.sub s k (String.length s - k) in
    let n = String.length name and paren = name ^ "(" ^ key ^ "=" in
    if has_prefix (name ^ ":") || has_prefix (name ^ "=") then
      Some (after (n + 1))
    else if has_prefix paren && String.ends_with ~suffix:")" s then
      let x = after (String.length paren) in
      Some (String.sub x 0 (String.length x - 1))
    else None
  in
  if s = "atomic" then Ok Atomic
  else if s = "reorder" then Ok Reorder
  else if s = "drop" then Ok (Drop { keep_prob = 0.5 })
  else if s = "torn" then Ok (Torn { granularity = 1 })
  else if has_prefix "drop" then
    match Option.bind (param ~name:"drop" ~key:"keep") float_of_string_opt with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok (Drop { keep_prob = p })
    | _ -> Error (Printf.sprintf "bad drop keep probability in %S" s)
  else if has_prefix "torn" then
    match Option.bind (param ~name:"torn" ~key:"g") int_of_string_opt with
    | Some g when g >= 1 -> Ok (Torn { granularity = g })
    | _ -> Error (Printf.sprintf "bad torn granularity in %S" s)
  else
    Error
      (Printf.sprintf
         "unknown fault model %S (expected atomic, drop[:KEEP], torn[:G] or \
          reorder)"
         s)
