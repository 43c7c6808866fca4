open Nvm

type t =
  | Inv of { pid : int; uid : int; op : Spec.op }
  | Ret of { pid : int; uid : int; v : Value.t }
  | Crash
  | Rec_ret of { pid : int; uid : int; v : Value.t }
  | Rec_fail of { pid : int; uid : int }

let pp fmt = function
  | Inv { pid; uid; op } ->
      Format.fprintf fmt "p%d inv  #%d %a" pid uid Spec.pp_op op
  | Ret { pid; uid; v } ->
      Format.fprintf fmt "p%d ret  #%d -> %a" pid uid Value.pp v
  | Crash -> Format.fprintf fmt "== CRASH =="
  | Rec_ret { pid; uid; v } ->
      Format.fprintf fmt "p%d rec  #%d -> %a" pid uid Value.pp v
  | Rec_fail { pid; uid } -> Format.fprintf fmt "p%d rec  #%d -> fail" pid uid

let pp_history fmt events =
  List.iteri (fun i e -> Format.fprintf fmt "%3d  %a@." i pp e) events

let crashes events =
  List.fold_left (fun n e -> match e with Crash -> n + 1 | _ -> n) 0 events
