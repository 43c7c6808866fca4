(* JSON output and sample statistics shared by the benchmark's modes. *)

open Tiny_json

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Printf.sprintf "%.1f" f
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> escape s
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kv)
      ^ "}"

let num_list l = List (List.map (fun f -> Num f) l)

let floats_of j =
  List.map (function Int i -> float_of_int i | v -> get_num v) (get_list j)

let field_num k j =
  match member k j with Int i -> float_of_int i | v -> get_num v

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(values, n=4), so spreads read the same here as
   in a Python analysis of the results; with fewer than two samples
   every quartile is the sample itself. *)
let quartiles samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  match n with
  | 0 -> (0.0, 0.0, 0.0)
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
      let q i =
        let m = n + 1 in
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.0
      in
      (q 1, q 2, q 3)

let median samples =
  let _, m, _ = quartiles samples in
  m
