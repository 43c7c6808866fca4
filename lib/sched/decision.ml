type t = Step of int | Crash

let to_string = function
  | Step pid -> "p" ^ string_of_int pid
  | Crash -> "CRASH"

(* only the spelling [to_string] gives: "p01" and "p+1" are errors, so a
   decoded decision always re-encodes to its input *)
let of_string s =
  let n = String.length s in
  let pid =
    if n >= 2 && s.[0] = 'p' then int_of_string_opt (String.sub s 1 (n - 1))
    else None
  in
  match pid with
  | _ when s = "CRASH" -> Ok Crash
  | Some pid when to_string (Step pid) = s -> Ok (Step pid)
  | _ -> Error (Printf.sprintf "bad decision %S" s)

let schedule_to_string ds = String.concat " " (List.map to_string ds)
