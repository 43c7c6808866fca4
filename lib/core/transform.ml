open Nvm
open Runtime
open History

type t = {
  ctx : Base.ctx;
  core : Dcas.core;
  att : Loc.t array;  (* att_p: (old, new) of the attempt in flight, or ⊥ *)
  init : Value.t;
  spec : Spec.t;
  descr : string;
  apply : Spec.op -> Value.t -> (Value.t * Value.t) option;
}

(* [rmw … ~apply] builds an object whose update operations are defined by
   [apply op current = Some (new_value, response)]; [apply op _ = None]
   marks [op] as a plain read (returns the current value). *)
let rmw ?persist machine ~n ~init ~spec ~descr ~apply =
  let ctx = Base.make_ctx ?persist machine ~n in
  let cells =
    Array.init n (fun pid -> Dcas.alloc_cells machine ~pid ~tag:"sub")
  in
  let core = Dcas.alloc_core ctx ~name:"C" ~init cells in
  let att =
    Array.init n (fun pid -> Machine.alloc_private machine ~pid "att" Value.Bot)
  in
  { ctx; core; att; init; spec; descr; apply }

(* The lock-free update loop: each iteration is one recoverable CAS
   attempt with its own announcement. *)
let rec update_loop t ~pid (op : Spec.op) =
  let cur = Dcas.read_core t.core ~pid in
  match t.apply op cur with
  | None -> Base.bad_op t.descr op
  | Some (new_v, resp) ->
      (* announce the attempt: invalidate the previous one first, commit
         the new one last *)
      Base.wr t.ctx t.att.(pid) Value.Bot;
      Dcas.reset_cells t.core ~pid;
      Base.wr t.ctx t.att.(pid) (Value.pair cur new_v);
      if Dcas.cas_core t.core ~pid ~old_v:cur ~new_v then begin
        Base.set_resp t.ctx ~pid resp;
        resp
      end
      else update_loop t ~pid op

let read_body t ~pid =
  let v = Dcas.read_core t.core ~pid in
  Base.set_resp t.ctx ~pid v;
  v

let invoke t ~pid (op : Spec.op) =
  match t.apply op t.init with
  | Some _ -> update_loop t ~pid op
  | None -> (
      match (op.Spec.name, op.Spec.args) with
      | "read", [||] -> read_body t ~pid
      | _ -> Base.bad_op t.descr op)

let recover t ~pid (op : Spec.op) =
  let resp = Base.get_resp t.ctx ~pid in
  if not (Value.equal resp Value.Bot) then resp
  else
    match t.apply op t.init with
    | None ->
        (* a crashed read that never persisted its response was not
           linearized in any way the caller can rely on *)
        Sched.Obj_inst.fail
    | Some _ -> (
        let att = Base.rd t.ctx t.att.(pid) in
        if Value.equal att Value.Bot then Sched.Obj_inst.fail
        else
          let r = Dcas.recover_core t.core ~pid in
          match r with
          | Value.Bool true ->
              (* the committed attempt's CAS succeeded: the operation was
                 linearized there; rebuild the response from the attempt's
                 [old] value *)
              let old_v = Value.nth att 0 in
              let resp =
                match t.apply op old_v with
                | Some (_, resp) -> resp
                | None -> assert false
              in
              Base.set_resp t.ctx ~pid resp;
              resp
          | _ ->
              (* attempt failed, never ran, or recovery said fail: nothing
                 took effect *)
              Sched.Obj_inst.fail)

let instance t =
  (* the attempt register must be invalidated before a new operation's
     announcement commits: recovery trusts [att_p] only for the current
     operation *)
  let announce ~pid op =
    Base.announce_with t.ctx ~pid
      ~extra:(fun () -> Base.wr t.ctx t.att.(pid) Value.Bot)
      op
  in
  {
    Sched.Obj_inst.descr = t.descr;
    spec = t.spec;
    announce;
    invoke = (fun ~pid op -> invoke t ~pid op);
    recover = (fun ~pid op -> recover t ~pid op);
    clear = (fun ~pid -> Base.std_clear t.ctx ~pid);
    pending = (fun ~pid -> Base.std_pending t.ctx ~pid);
    strict_recovery = true;
    id_symmetric = false;
  }

let shared_locs t = [ Dcas.core_loc t.core ]

let counter ?persist machine ~n ~init =
  let apply (op : Spec.op) cur =
    match (op.Spec.name, op.Spec.args) with
    | "inc", [||] -> Some (Value.Int (Value.to_int cur + 1), Spec.ack)
    | _ -> None
  in
  rmw ?persist machine ~n ~init:(Value.Int init) ~spec:(Spec.counter init)
    ~descr:"dcounter (capsule over detectable CAS)" ~apply

let faa ?persist machine ~n ~init =
  let apply (op : Spec.op) cur =
    match (op.Spec.name, op.Spec.args) with
    | "faa", [| Value.Int d |] -> Some (Value.Int (Value.to_int cur + d), cur)
    | _ -> None
  in
  rmw ?persist machine ~n ~init:(Value.Int init) ~spec:(Spec.faa_cell init)
    ~descr:"dfaa (capsule over detectable CAS)" ~apply

let swap ?persist machine ~n ~init =
  let apply (op : Spec.op) cur =
    match (op.Spec.name, op.Spec.args) with
    | "swap", [| v |] -> Some (v, cur)
    | _ -> None
  in
  rmw ?persist machine ~n ~init ~spec:(Spec.swap_cell init)
    ~descr:"dswap (capsule over detectable CAS)" ~apply

(* a [tas] whose flag is already set, and a [reset] of a clear flag, are
   identity attempts: the CAS core runs them read-only, so they linearize
   without flip-vector churn *)
let tas ?persist machine ~n =
  let apply (op : Spec.op) cur =
    match (op.Spec.name, op.Spec.args) with
    | "tas", [||] -> Some (Value.Bool true, cur)
    | "reset", [||] -> Some (Value.Bool false, Spec.ack)
    | _ -> None
  in
  rmw ?persist machine ~n ~init:(Value.Bool false) ~spec:(Spec.resettable_tas ())
    ~descr:"dtas (capsule over detectable CAS)" ~apply

let bounded_counter ?persist machine ~n ~lo ~hi ~init =
  if not (lo <= init && init <= hi) then
    invalid_arg "Transform.bounded_counter";
  let apply (op : Spec.op) cur =
    match (op.Spec.name, op.Spec.args) with
    | "inc", [||] -> Some (Value.Int (min hi (Value.to_int cur + 1)), Spec.ack)
    | _ -> None
  in
  rmw ?persist machine ~n ~init:(Value.Int init)
    ~spec:(Spec.bounded_counter ~lo ~hi init)
    ~descr:"dbounded-counter (capsule over detectable CAS)" ~apply
