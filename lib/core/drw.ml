open Nvm
open Runtime
open History

type t = {
  ctx : Base.ctx;
  r : Loc.t;  (* the register R: (value, writer pid, toggle index) *)
  a : Loc.t array array array;  (* A.(i).(q).(b): toggle bits *)
  rd_p : Loc.t array;  (* RD_p: recovery data *)
  t_p : Loc.t array;  (* T_p: next toggle index *)
  init : Value.t;
}

let create ?persist machine ~n ~init =
  let ctx = Base.make_ctx ?persist machine ~n in
  let r =
    Machine.alloc_shared machine "R"
      (Value.triple init (Value.Int 0) (Value.Int 0))
  in
  let a =
    Array.init n (fun i ->
        Array.init n (fun q ->
            Array.init 2 (fun b ->
                Machine.alloc_shared machine
                  (Printf.sprintf "A[%d][%d][%d]" i q b)
                  (Value.Bool false))))
  in
  let rd_p =
    Array.init n (fun pid -> Machine.alloc_private machine ~pid "RD" Value.Bot)
  in
  let t_p =
    Array.init n (fun pid ->
        Machine.alloc_private machine ~pid "T" (Value.Int 0))
  in
  { ctx; r; a; rd_p; t_p; init }

(* Lines 8-13 / 22-27: raise all own toggle bits of [mtoggle], switch the
   toggle index, persist and return the response. *)
let complete t ~pid ~mtoggle =
  let ctx = t.ctx in
  Base.set_cp ctx ~pid 2;
  for i = 0 to ctx.Base.n - 1 do
    Base.wr ctx t.a.(i).(pid).(mtoggle) (Value.Bool true)
  done;
  Base.wr ctx t.t_p.(pid) (Value.Int (1 - mtoggle));
  Base.set_resp ctx ~pid Spec.ack;
  Spec.ack

let write_body t ~pid value =
  let ctx = t.ctx in
  let rv = Base.rd ctx t.r in (* line 1 *)
  let q = Value.to_int (Value.nth rv 1) in
  let qtoggle = Value.to_int (Value.nth rv 2) in
  Base.wr ctx t.a.(pid).(q).(1 - qtoggle) (Value.Bool false); (* line 2 *)
  let mtoggle = Value.to_int (Base.rd ctx t.t_p.(pid)) in (* line 3 *)
  Base.wr ctx t.rd_p.(pid) (Value.pair (Value.Int mtoggle) rv); (* line 4 *)
  let rv' = Base.rd ctx t.r in (* line 5 *)
  if Value.equal rv' rv then begin
    Base.set_cp ctx ~pid 1; (* line 6 *)
    Base.wr ctx t.r (Value.triple value (Value.Int pid) (Value.Int mtoggle))
    (* line 7 *)
  end;
  complete t ~pid ~mtoggle (* lines 8-13 *)

let write_recover t ~pid =
  let ctx = t.ctx in
  let rdv = Base.rd ctx t.rd_p.(pid) in (* line 14 *)
  if not (Value.equal (Base.get_resp ctx ~pid) Value.Bot) then Spec.ack
    (* lines 15-16 *)
  else if Base.get_cp ctx ~pid = 0 then Sched.Obj_inst.fail (* lines 17-18 *)
  else begin
    let mtoggle = Value.to_int (Value.nth rdv 0) in
    let old_r = Value.nth rdv 1 in
    let q = Value.to_int (Value.nth old_r 1) in
    let qtoggle = Value.to_int (Value.nth old_r 2) in
    if
      Base.get_cp ctx ~pid = 1 (* line 19 *)
      && Value.equal (Base.rd ctx t.r) old_r (* line 20 *)
      && Value.equal
           (Base.rd ctx t.a.(pid).(q).(1 - qtoggle))
           (Value.Bool false)
    then Sched.Obj_inst.fail (* line 21 *)
    else complete t ~pid ~mtoggle (* lines 22-27 *)
  end

let read_body t ~pid =
  let ctx = t.ctx in
  let v = Value.nth (Base.rd ctx t.r) 0 in
  Base.set_resp ctx ~pid v;
  v

let read_recover t ~pid =
  let resp = Base.get_resp t.ctx ~pid in
  if Value.equal resp Value.Bot then read_body t ~pid else resp

let instance t =
  let ctx = t.ctx in
  let invoke ~pid (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "read", [||] -> read_body t ~pid
    | "write", [| v |] -> write_body t ~pid v
    | _ -> Base.bad_op "Drw" op
  in
  let recover ~pid (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "read", [||] -> read_recover t ~pid
    | "write", [| _ |] -> write_recover t ~pid
    | _ -> Base.bad_op "Drw" op
  in
  {
    Sched.Obj_inst.descr = "drw (Algorithm 1, bounded space)";
    spec = Spec.register t.init;
    announce = Base.std_announce ctx;
    invoke;
    recover;
    clear = (fun ~pid -> Base.std_clear ctx ~pid);
    pending = (fun ~pid -> Base.std_pending ctx ~pid);
    strict_recovery = true;
    id_symmetric = false;
  }
