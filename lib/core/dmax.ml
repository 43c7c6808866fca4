open Nvm
open Runtime
open History

type t = { ctx : Base.ctx; mr : Loc.t array; init : int }

let create ?persist machine ~n ~init =
  let ctx = Base.make_ctx ?persist machine ~n in
  let mr =
    Array.init n (fun i ->
        Machine.alloc_shared machine (Printf.sprintf "MR[%d]" i)
          (Value.Int init))
  in
  { ctx; mr; init }

let write_max t ~pid v =
  (* lines 47-49 *)
  if Value.to_int (Base.rd t.ctx t.mr.(pid)) < v then
    Base.wr t.ctx t.mr.(pid) (Value.Int v);
  Spec.ack

let collect t =
  Array.map (fun loc -> Value.to_int (Base.rd t.ctx loc)) t.mr

let read t ~pid:_ =
  (* lines 50-55: double collect *)
  let rec loop a =
    let b = collect t in
    if a = b then Value.Int (Array.fold_left max t.init b) else loop b
  in
  loop (Array.make (Array.length t.mr) t.init)

let instance t =
  let dispatch ~pid (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "read", [||] -> read t ~pid
    | "write_max", [| Value.Int v |] -> write_max t ~pid v
    | _ -> Base.bad_op "Dmax" op
  in
  {
    Sched.Obj_inst.descr = "dmax (Algorithm 3, no auxiliary state)";
    spec = Spec.max_register t.init;
    announce = Base.std_announce t.ctx;
    invoke = dispatch;
    (* recovery simply re-invokes the operation — no auxiliary state *)
    recover = dispatch;
    clear = (fun ~pid -> Base.std_clear t.ctx ~pid);
    pending = (fun ~pid -> Base.std_pending t.ctx ~pid);
    strict_recovery = false;
    id_symmetric = false;
  }
