open Nvm
open Runtime
open History

type t = {
  ctx : Base.ctx;
  head : Loc.t;  (* id of the last consumed (dummy) node *)
  tail : Loc.t;  (* lagging append hint *)
  alloc_idx : Loc.t;  (* next free pool slot (FAA) *)
  node_val : Loc.t array;
  node_next : Loc.t array;  (* ⊥ or Int id; write-once *)
  node_deq : Loc.t array;  (* ⊥ or Int pid; write-once *)
  node_p : Loc.t array;  (* per process: id of the node being enqueued *)
  att_p : Loc.t array;  (* per process: predecessor of the link attempt *)
  datt_p : Loc.t array;  (* per process: node of the claim attempt *)
  capacity : int;
}

let create ?persist machine ~n ~capacity =
  if capacity < 1 then invalid_arg "Dqueue.create: capacity must be >= 1";
  let ctx = Base.make_ctx ?persist machine ~n in
  let cap = capacity + 1 (* slot 0 is the initial dummy *) in
  let shared fmt = Printf.ksprintf (fun s -> Machine.alloc_shared machine s) fmt in
  {
    ctx;
    head = Machine.alloc_shared machine "head" (Value.Int 0);
    tail = Machine.alloc_shared machine "tail" (Value.Int 0);
    alloc_idx = Machine.alloc_shared machine "alloc_idx" (Value.Int 1);
    node_val = Array.init cap (fun i -> shared "node[%d].val" i Value.Bot);
    node_next = Array.init cap (fun i -> shared "node[%d].next" i Value.Bot);
    node_deq = Array.init cap (fun i -> shared "node[%d].deq" i Value.Bot);
    node_p =
      Array.init n (fun pid -> Machine.alloc_private machine ~pid "node" Value.Bot);
    att_p =
      Array.init n (fun pid -> Machine.alloc_private machine ~pid "att" Value.Bot);
    datt_p =
      Array.init n (fun pid -> Machine.alloc_private machine ~pid "datt" Value.Bot);
    capacity = cap;
  }

let empty_resp = Value.Str "empty"

let enq t ~pid v =
  let ctx = t.ctx in
  let idx = Base.faal ctx t.alloc_idx 1 in
  if idx >= t.capacity then
    invalid_arg "Dqueue: node pool exhausted (raise ~capacity)";
  Base.wr ctx t.node_val.(idx) v;
  Base.wr ctx t.node_p.(pid) (Value.Int idx);
  let rec loop () =
    let last = Value.to_int (Base.rd ctx t.tail) in
    let nxt = Base.rd ctx t.node_next.(last) in
    if Value.equal nxt Value.Bot then begin
      Base.wr ctx t.att_p.(pid) (Value.Int last);
      if Base.casl ctx t.node_next.(last) Value.Bot (Value.Int idx) then begin
        (* linearized; advance the tail hint, best effort *)
        ignore (Base.casl ctx t.tail (Value.Int last) (Value.Int idx));
        Base.set_resp ctx ~pid Spec.ack;
        Spec.ack
      end
      else loop ()
    end
    else begin
      (* help a slow appender: swing the tail forward *)
      ignore (Base.casl ctx t.tail (Value.Int last) nxt);
      loop ()
    end
  in
  loop ()

let enq_recover t ~pid =
  let ctx = t.ctx in
  let resp = Base.get_resp ctx ~pid in
  if not (Value.equal resp Value.Bot) then resp
  else
    let node = Base.rd ctx t.node_p.(pid) in
    if Value.equal node Value.Bot then Sched.Obj_inst.fail
    else
      let att = Base.rd ctx t.att_p.(pid) in
      if
        (not (Value.equal att Value.Bot))
        && Value.equal (Base.rd ctx t.node_next.(Value.to_int att)) node
      then begin
        (* the link CAS took effect: [next] fields are write-once, so this
           equality can only come from our own successful CAS *)
        Base.set_resp ctx ~pid Spec.ack;
        Spec.ack
      end
      else Sched.Obj_inst.fail

let deq t ~pid =
  let ctx = t.ctx in
  let rec loop () =
    let first = Value.to_int (Base.rd ctx t.head) in
    let nxt = Base.rd ctx t.node_next.(first) in
    if Value.equal nxt Value.Bot then begin
      Base.set_resp ctx ~pid empty_resp;
      empty_resp
    end
    else begin
      let n = Value.to_int nxt in
      let claimed = Base.rd ctx t.node_deq.(n) in
      if Value.equal claimed Value.Bot then begin
        Base.wr ctx t.datt_p.(pid) (Value.Int n);
        if Base.casl ctx t.node_deq.(n) Value.Bot (Value.Int pid) then begin
          ignore (Base.casl ctx t.head (Value.Int first) (Value.Int n));
          let v = Base.rd ctx t.node_val.(n) in
          Base.set_resp ctx ~pid v;
          v
        end
        else begin
          ignore (Base.casl ctx t.head (Value.Int first) (Value.Int n));
          loop ()
        end
      end
      else begin
        (* node already consumed: help advance head past it *)
        ignore (Base.casl ctx t.head (Value.Int first) (Value.Int n));
        loop ()
      end
    end
  in
  loop ()

let deq_recover t ~pid =
  let ctx = t.ctx in
  let resp = Base.get_resp ctx ~pid in
  if not (Value.equal resp Value.Bot) then resp
  else
    let datt = Base.rd ctx t.datt_p.(pid) in
    if Value.equal datt Value.Bot then Sched.Obj_inst.fail
    else
      let n = Value.to_int datt in
      if Value.equal (Base.rd ctx t.node_deq.(n)) (Value.Int pid) then begin
        let v = Base.rd ctx t.node_val.(n) in
        Base.set_resp ctx ~pid v;
        v
      end
      else Sched.Obj_inst.fail

let instance t =
  let ctx = t.ctx in
  let announce ~pid op =
    Base.announce_with ctx ~pid
      ~extra:(fun () ->
        Base.wr ctx t.node_p.(pid) Value.Bot;
        Base.wr ctx t.att_p.(pid) Value.Bot;
        Base.wr ctx t.datt_p.(pid) Value.Bot)
      op
  in
  let invoke ~pid (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "enq", [| v |] -> enq t ~pid v
    | "deq", [||] -> deq t ~pid
    | _ -> Base.bad_op "Dqueue" op
  in
  let recover ~pid (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "enq", [| _ |] -> enq_recover t ~pid
    | "deq", [||] -> deq_recover t ~pid
    | _ -> Base.bad_op "Dqueue" op
  in
  {
    Sched.Obj_inst.descr = "dqueue (detectable durable FIFO queue)";
    spec = Spec.fifo_queue ();
    announce;
    invoke;
    recover;
    clear = (fun ~pid -> Base.std_clear ctx ~pid);
    pending = (fun ~pid -> Base.std_pending ctx ~pid);
    strict_recovery = true;
    id_symmetric = false;
  }
