open Nvm
open Runtime
open History
open Detectable

type t = {
  ctx : Base.ctx;
  c : Loc.t;  (* (value, (writer pid, writer seq)) *)
  rem : Loc.t array;  (* rem.(w): max seq of w's tuples observed in C *)
  seq_p : Loc.t array;
  rd_p : Loc.t array;  (* recovery data: C's content before the CAS *)
  init : Value.t;
}

let tag pid seq = Value.pair (Value.Int pid) (Value.Int seq)

let create ?persist machine ~n ~init =
  let ctx = Base.make_ctx ?persist machine ~n in
  {
    ctx;
    c = Machine.alloc_shared machine "C" (Value.pair init (tag 0 0));
    rem =
      Array.init n (fun w ->
          Machine.alloc_shared machine (Printf.sprintf "rem[%d]" w)
            (Value.Int 0));
    seq_p =
      Array.init n (fun pid ->
          Machine.alloc_private machine ~pid "seq" (Value.Int 0));
    rd_p =
      Array.init n (fun pid -> Machine.alloc_private machine ~pid "RD" Value.Bot);
    init;
  }

(* Raise rem.(w) to at least [s] (monotone maximum, lock-free). *)
let rec record_removal t ~w ~s =
  let cur = Base.rd t.ctx t.rem.(w) in
  if Value.to_int cur >= s then ()
  else if Base.casl t.ctx t.rem.(w) cur (Value.Int s) then ()
  else record_removal t ~w ~s

let cas_body t ~pid ~old_v ~new_v =
  let ctx = t.ctx in
  if Value.equal old_v new_v then begin
    (* identity CAS: read-only, same reasoning as in {!Detectable.Dcas} —
       the tagged pair CAS would spuriously fail under tag churn *)
    let cv = Base.rd ctx t.c in
    let res = Value.equal (Value.nth cv 0) old_v in
    Base.set_resp ctx ~pid (Value.Bool res);
    Value.Bool res
  end
  else begin
  let cv = Base.rd ctx t.c in
  let value = Value.nth cv 0 in
  if not (Value.equal value old_v) then begin
    Base.set_resp ctx ~pid (Value.Bool false);
    Value.Bool false
  end
  else begin
    let victim = Value.nth cv 1 in
    let w = Value.to_int (Value.nth victim 0) in
    let ws = Value.to_int (Value.nth victim 1) in
    let s = Value.to_int (Base.rd ctx t.seq_p.(pid)) + 1 in
    Base.wr ctx t.seq_p.(pid) (Value.Int s); (* burn a unique tag *)
    Base.wr ctx t.rd_p.(pid) cv;
    (* record the victim before attempting to remove it *)
    record_removal t ~w ~s:ws;
    Base.set_cp ctx ~pid 1;
    let res = Base.casl ctx t.c cv (Value.pair new_v (tag pid s)) in
    Base.set_resp ctx ~pid (Value.Bool res);
    Value.Bool res
  end
  end

let cas_recover t ~pid =
  let ctx = t.ctx in
  let resp = Base.get_resp ctx ~pid in
  if not (Value.equal resp Value.Bot) then resp
  else if Base.get_cp ctx ~pid = 0 then Sched.Obj_inst.fail
  else begin
    let s = Value.to_int (Base.rd ctx t.seq_p.(pid)) in
    let rv = Base.rd ctx t.rd_p.(pid) in
    let cur = Base.rd ctx t.c in
    if Value.equal (Value.nth cur 1) (tag pid s) then begin
      (* our tuple is still installed *)
      Base.set_resp ctx ~pid (Value.Bool true);
      Value.Bool true
    end
    else if Value.equal cur rv then
      (* unchanged since our read: with unique tags, the CAS certainly
         never executed *)
      Sched.Obj_inst.fail
    else if Value.to_int (Base.rd ctx t.rem.(pid)) >= s then begin
      (* our tuple was observed in C (and since removed): the CAS
         succeeded *)
      Base.set_resp ctx ~pid (Value.Bool true);
      Value.Bool true
    end
    else
      (* the CAS either failed or never executed: not linearized *)
      Sched.Obj_inst.fail
  end

let instance t =
  let ctx = t.ctx in
  let invoke ~pid (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "read", [||] ->
        let v = Value.nth (Base.rd ctx t.c) 0 in
        Base.set_resp ctx ~pid v;
        v
    | "cas", [| old_v; new_v |] -> cas_body t ~pid ~old_v ~new_v
    | _ -> Base.bad_op "Ucas" op
  in
  let recover ~pid (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "read", [||] ->
        let resp = Base.get_resp ctx ~pid in
        if Value.equal resp Value.Bot then begin
          let v = Value.nth (Base.rd ctx t.c) 0 in
          Base.set_resp ctx ~pid v;
          v
        end
        else resp
    | "cas", [| _; _ |] -> cas_recover t ~pid
    | _ -> Base.bad_op "Ucas" op
  in
  {
    Sched.Obj_inst.descr = "ucas (unbounded tags, after Ben-David et al.)";
    spec = Spec.cas_cell t.init;
    announce = Base.std_announce ctx;
    invoke;
    recover;
    clear = (fun ~pid -> Base.std_clear ctx ~pid);
    pending = (fun ~pid -> Base.std_pending ctx ~pid);
    strict_recovery = true;
    id_symmetric = false;
  }
