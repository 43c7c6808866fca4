open Nvm
open Runtime
open History

let no_recovery_inst ~descr ~spec ~invoke =
  {
    Sched.Obj_inst.descr;
    spec;
    announce = (fun ~pid:_ _ -> ());
    invoke;
    recover =
      (fun ~pid:_ _ ->
        (* never reached: [pending] reports nothing in flight *)
        assert false);
    clear = (fun ~pid:_ -> ());
    pending = (fun ~pid:_ -> None);
    strict_recovery = false;
    id_symmetric = false;
  }

let register machine ~init =
  let r = Machine.alloc_shared machine "R" init in
  let invoke ~pid:_ (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "read", [||] -> Fiber.read r
    | "write", [| v |] ->
        Fiber.write r v;
        Spec.ack
    | _ -> Detectable.Base.bad_op "Plain.register" op
  in
  no_recovery_inst ~descr:"plain register (not recoverable)"
    ~spec:(Spec.register init) ~invoke

let cas_cell machine ~init =
  let c = Machine.alloc_shared machine "C" init in
  let invoke ~pid:_ (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "read", [||] -> Fiber.read c
    | "cas", [| old_v; new_v |] -> Value.Bool (Fiber.cas c old_v new_v)
    | _ -> Detectable.Base.bad_op "Plain.cas" op
  in
  no_recovery_inst ~descr:"plain cas (not recoverable)"
    ~spec:(Spec.cas_cell init) ~invoke

let counter machine ~init =
  let c = Machine.alloc_shared machine "ctr" (Value.Int init) in
  let invoke ~pid:_ (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "read", [||] -> Fiber.read c
    | "inc", [||] ->
        ignore (Fiber.faa c 1);
        Spec.ack
    | _ -> Detectable.Base.bad_op "Plain.counter" op
  in
  no_recovery_inst ~descr:"plain counter (not recoverable)"
    ~spec:(Spec.counter init) ~invoke

let queue machine ~capacity =
  if capacity < 1 then invalid_arg "Plain.queue: capacity must be >= 1";
  let cap = capacity + 1 in
  let shared fmt = Printf.ksprintf (fun s -> Machine.alloc_shared machine s) fmt in
  let head = Machine.alloc_shared machine "head" (Value.Int 0) in
  let tail = Machine.alloc_shared machine "tail" (Value.Int 0) in
  let alloc_idx = Machine.alloc_shared machine "alloc_idx" (Value.Int 1) in
  let node_val = Array.init cap (fun i -> shared "node[%d].val" i Value.Bot) in
  let node_next = Array.init cap (fun i -> shared "node[%d].next" i Value.Bot) in
  let node_deq = Array.init cap (fun i -> shared "node[%d].deq" i Value.Bot) in
  let enq ~pid v =
    let idx = Fiber.faa alloc_idx 1 in
    if idx >= cap then invalid_arg "Plain.queue: pool exhausted";
    Fiber.write node_val.(idx) v;
    let rec loop () =
      let last = Value.to_int (Fiber.read tail) in
      let nxt = Fiber.read node_next.(last) in
      if Value.equal nxt Value.Bot then
        if Fiber.cas node_next.(last) Value.Bot (Value.Int idx) then begin
          ignore (Fiber.cas tail (Value.Int last) (Value.Int idx));
          Spec.ack
        end
        else loop ()
      else begin
        ignore (Fiber.cas tail (Value.Int last) nxt);
        loop ()
      end
    in
    ignore pid;
    loop ()
  in
  let deq ~pid =
    let rec loop () =
      let first = Value.to_int (Fiber.read head) in
      let nxt = Fiber.read node_next.(first) in
      if Value.equal nxt Value.Bot then Value.Str "empty"
      else
        let n = Value.to_int nxt in
        if
          Value.equal (Fiber.read node_deq.(n)) Value.Bot
          && Fiber.cas node_deq.(n) Value.Bot (Value.Int pid)
        then begin
          ignore (Fiber.cas head (Value.Int first) (Value.Int n));
          Fiber.read node_val.(n)
        end
        else begin
          ignore (Fiber.cas head (Value.Int first) (Value.Int n));
          loop ()
        end
    in
    loop ()
  in
  let invoke ~pid (op : Spec.op) =
    match (op.Spec.name, op.Spec.args) with
    | "enq", [| v |] -> enq ~pid v
    | "deq", [||] -> deq ~pid
    | _ -> Detectable.Base.bad_op "Plain.queue" op
  in
  no_recovery_inst ~descr:"plain queue (not recoverable)"
    ~spec:(Spec.fifo_queue ()) ~invoke
