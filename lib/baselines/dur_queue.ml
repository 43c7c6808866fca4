open Nvm
open Runtime
open History
open Detectable

type t = {
  ctx : Base.ctx;
  head : Loc.t;
  tail : Loc.t;
  alloc_idx : Loc.t;
  node_val : Loc.t array;
  node_next : Loc.t array;
  node_deq : Loc.t array;
  capacity : int;
}

let create ?persist machine ~n ~capacity =
  if capacity < 1 then invalid_arg "Dur_queue.create: capacity must be >= 1";
  let ctx = Base.make_ctx ?persist machine ~n in
  let cap = capacity + 1 in
  let shared fmt = Printf.ksprintf (fun s -> Machine.alloc_shared machine s) fmt in
  {
    ctx;
    head = Machine.alloc_shared machine "head" (Value.Int 0);
    tail = Machine.alloc_shared machine "tail" (Value.Int 0);
    alloc_idx = Machine.alloc_shared machine "alloc_idx" (Value.Int 1);
    node_val = Array.init cap (fun i -> shared "node[%d].val" i Value.Bot);
    node_next = Array.init cap (fun i -> shared "node[%d].next" i Value.Bot);
    node_deq = Array.init cap (fun i -> shared "node[%d].deq" i Value.Bot);
    capacity = cap;
  }

let enq t ~pid:_ v =
  let ctx = t.ctx in
  let idx = Base.faal ctx t.alloc_idx 1 in
  if idx >= t.capacity then
    invalid_arg "Dur_queue: node pool exhausted (raise ~capacity)";
  Base.wr ctx t.node_val.(idx) v;
  let rec loop () =
    let last = Value.to_int (Base.rd ctx t.tail) in
    let nxt = Base.rd ctx t.node_next.(last) in
    if Value.equal nxt Value.Bot then
      if Base.casl ctx t.node_next.(last) Value.Bot (Value.Int idx) then begin
        ignore (Base.casl ctx t.tail (Value.Int last) (Value.Int idx));
        Spec.ack
      end
      else loop ()
    else begin
      ignore (Base.casl ctx t.tail (Value.Int last) nxt);
      loop ()
    end
  in
  loop ()

let deq t ~pid =
  let ctx = t.ctx in
  let rec loop () =
    let first = Value.to_int (Base.rd ctx t.head) in
    let nxt = Base.rd ctx t.node_next.(first) in
    if Value.equal nxt Value.Bot then Value.Str "empty"
    else begin
      let n = Value.to_int nxt in
      let claimed = Base.rd ctx t.node_deq.(n) in
      if
        Value.equal claimed Value.Bot
        && Base.casl ctx t.node_deq.(n) Value.Bot (Value.Int pid)
      then begin
        ignore (Base.casl ctx t.head (Value.Int first) (Value.Int n));
        Base.rd ctx t.node_val.(n)
      end
      else begin
        ignore (Base.casl ctx t.head (Value.Int first) (Value.Int n));
        loop ()
      end
    end
  in
  loop ()

let instance t =
  let ctx = t.ctx in
  let invoke ~pid (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "enq", [| v |] -> enq t ~pid v
    | "deq", [||] -> deq t ~pid
    | _ -> Base.bad_op "Dur_queue" op
  in
  {
    Sched.Obj_inst.descr = "dur_queue (durable, NOT detectable)";
    spec = Spec.fifo_queue ();
    announce = Base.std_announce ctx;
    invoke;
    (* the structure is consistent after a crash, but nothing records
       whether the interrupted operation took effect *)
    recover = (fun ~pid:_ _ -> Sched.Obj_inst.unknown);
    clear = (fun ~pid -> Base.std_clear ctx ~pid);
    pending = (fun ~pid -> Base.std_pending ctx ~pid);
    strict_recovery = false;
    id_symmetric = false;
  }
