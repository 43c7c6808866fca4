open Nvm

type t = { op : Loc.t; resp : Loc.t; cp : Loc.t }

let alloc machine ~pid =
  let name field = Printf.sprintf "Ann.%s" field in
  {
    op = Machine.alloc_private machine ~pid (name "op") Value.Bot;
    resp = Machine.alloc_private machine ~pid (name "resp") Value.Bot;
    cp = Machine.alloc_private machine ~pid (name "cp") (Value.Int 0);
  }

let pending machine t =
  match Machine.peek machine t.op with
  | Value.Bot -> None
  | v -> Some (Value.to_str (Value.nth v 0), Value.nth v 1)
