open Nvm
open Runtime
open History

type t = {
  ctx : Base.ctx;
  mode : [ `Durable | `Detectable ];
  spec : Spec.t;
  log_next : Loc.t;  (* lagging hint of the first free slot *)
  slots : Loc.t array;  (* ⊥ or (name, args, tag); write-once *)
  seq_p : Loc.t array;  (* per-process persistent invocation counter *)
  capacity : int;
}

let create ?persist ?(mode = `Detectable) machine ~n ~capacity ~spec =
  if capacity < 1 then invalid_arg "Ulog.create: capacity must be >= 1";
  let ctx = Base.make_ctx ?persist machine ~n in
  {
    ctx;
    mode;
    spec;
    log_next = Machine.alloc_shared machine "log_next" (Value.Int 0);
    slots =
      Array.init capacity (fun i ->
          Machine.alloc_shared machine (Printf.sprintf "log[%d]" i) Value.Bot);
    seq_p =
      Array.init n (fun pid ->
          Machine.alloc_private machine ~pid "useq" (Value.Int 0));
    capacity;
  }

let encode (op : Spec.op) tag =
  Value.triple (Value.Str op.Spec.name) (Value.Tup op.Spec.args) tag

let decode entry =
  ( { Spec.name = Value.to_str (Value.nth entry 0);
      args = Value.to_tup (Value.nth entry 1) },
    Value.nth entry 2 )

(* Claim the first free slot with a CAS; helping keeps [log_next] moving. *)
let rec append t entry =
  let ctx = t.ctx in
  let slot = Value.to_int (Base.rd ctx t.log_next) in
  if slot >= t.capacity then
    invalid_arg "Ulog: log full (raise ~capacity)";
  if Base.casl ctx t.slots.(slot) Value.Bot entry then begin
    ignore (Base.casl ctx t.log_next (Value.Int slot) (Value.Int (slot + 1)));
    slot
  end
  else begin
    (* someone else owns this slot: help advance and retry *)
    ignore (Base.casl ctx t.log_next (Value.Int slot) (Value.Int (slot + 1)));
    append t entry
  end

(* Replay the immutable prefix [0..slot] and return entry [slot]'s
   response.  Each slot read is a primitive step: the replay cost is the
   construction's documented per-operation price. *)
let response_at t ~slot =
  let ctx = t.ctx in
  let state = ref t.spec.Spec.init in
  let resp = ref Value.Bot in
  for k = 0 to slot do
    let entry = Base.rd ctx t.slots.(k) in
    let op, _ = decode entry in
    let state', r = t.spec.Spec.step !state op in
    state := state';
    if k = slot then resp := r
  done;
  !resp

let my_tag t ~pid =
  Value.pair (Value.Int pid) (Base.rd t.ctx t.seq_p.(pid))

let invoke t ~pid (op : Spec.op) =
  let tag = match t.mode with `Durable -> Value.Bot | `Detectable -> my_tag t ~pid in
  let slot = append t (encode op tag) in
  let resp = response_at t ~slot in
  Base.set_resp t.ctx ~pid resp;
  resp

(* Scan the filled prefix for this invocation's tag. *)
let find_tag t tag =
  let ctx = t.ctx in
  let rec go k =
    if k >= t.capacity then None
    else
      let entry = Base.rd ctx t.slots.(k) in
      if Value.equal entry Value.Bot then None
      else
        let _, etag = decode entry in
        if Value.equal etag tag then Some k else go (k + 1)
  in
  go 0

let recover t ~pid (_op : Spec.op) =
  let resp = Base.get_resp t.ctx ~pid in
  if not (Value.equal resp Value.Bot) then resp
  else
    match t.mode with
    | `Durable ->
        (* state is consistent, but nothing identifies this invocation *)
        Sched.Obj_inst.unknown
    | `Detectable -> (
        match find_tag t (my_tag t ~pid) with
        | Some slot ->
            let resp = response_at t ~slot in
            Base.set_resp t.ctx ~pid resp;
            resp
        | None -> Sched.Obj_inst.fail)

let instance t =
  let ctx = t.ctx in
  (* the unique tag is assigned (and persisted) by the announcement — the
     auxiliary state Theorem 2 requires, provided via NVM *)
  let announce ~pid op =
    Base.announce_with ctx ~pid
      ~extra:(fun () ->
        match t.mode with
        | `Durable -> ()
        | `Detectable ->
            let s = Value.to_int (Base.rd ctx t.seq_p.(pid)) + 1 in
            Base.wr ctx t.seq_p.(pid) (Value.Int s))
      op
  in
  {
    Sched.Obj_inst.descr =
      (match t.mode with
      | `Durable -> "ulog (universal construction, durable only)"
      | `Detectable -> "ulog (universal construction, detectable, unbounded)");
    spec = t.spec;
    announce;
    invoke = (fun ~pid op -> invoke t ~pid op);
    recover = (fun ~pid op -> recover t ~pid op);
    clear = (fun ~pid -> Base.std_clear ctx ~pid);
    pending = (fun ~pid -> Base.std_pending ctx ~pid);
    strict_recovery = (match t.mode with `Durable -> false | `Detectable -> true);
    id_symmetric = false;
  }

let log_length machine t =
  let rec go k =
    if k >= t.capacity then k
    else if Value.equal (Machine.peek machine t.slots.(k)) Value.Bot then k
    else go (k + 1)
  in
  go 0
