open Nvm

type verdict = Ok_linearizable of Spec.op list | Violation of string

let is_ok = function Ok_linearizable _ -> true | Violation _ -> false

let no_lin_msg =
  "no linearization satisfies durable linearizability + detectability"

(* What the history requires of one operation instance. *)
type kind =
  | Must of Value.t  (* must linearize with this response *)
  | Must_not  (* recovery said fail: must not linearize *)
  | May  (* pending at end of history: free choice *)

type op_record = {
  uid : int;
  op : Spec.op;
  inv : int;  (* history index of the invocation *)
  out : int option;  (* history index of the outcome event, if any *)
  kind : kind;
}

exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let analyze events =
  let tbl : (int, op_record) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iteri
    (fun i event ->
      match (event : Event.t) with
      | Crash -> ()
      | Inv { uid; op; _ } ->
          if Hashtbl.mem tbl uid then malformed "duplicate invocation #%d" uid;
          Hashtbl.add tbl uid { uid; op; inv = i; out = None; kind = May };
          order := uid :: !order
      | Ret { uid; v; _ } | Rec_ret { uid; v; _ } -> (
          match Hashtbl.find_opt tbl uid with
          | None -> malformed "response for unknown operation #%d" uid
          | Some r ->
              if r.out <> None then malformed "two outcomes for #%d" uid;
              Hashtbl.replace tbl uid { r with out = Some i; kind = Must v })
      | Rec_fail { uid; _ } -> (
          match Hashtbl.find_opt tbl uid with
          | None -> malformed "fail verdict for unknown operation #%d" uid
          | Some r ->
              if r.out <> None then malformed "two outcomes for #%d" uid;
              Hashtbl.replace tbl uid { r with out = Some i; kind = Must_not }))
    events;
  List.rev_map (Hashtbl.find tbl) !order

(* ------------------------------------------------------------------ *)
(* Batch reference checker: Wing–Gong DFS over (linearized set, abstract
   state), the set a {!Bitset} (one word up to 62 operations, chunked
   beyond).

   DFS node identity: which ops are linearized plus the abstract state
   with its cached digest ([Value.hc_of]).  The digest hashes the whole
   structure once per state, so the visited table neither truncates
   deep states (the polymorphic [Hashtbl.hash] only samples a bounded
   prefix of the structure — on large abstract states, e.g. long
   queues, every node landed in a handful of buckets) nor rehashes them
   per probe.  Ops with a [fail] verdict are excluded up-front (they may
   never linearize), and ops pending at the end of the history are
   simply never required — they have no outcome event, so they block
   nobody. *)

module Node_tbl = Hashtbl.Make (struct
  type t = Bitset.t * Value.hc

  let equal (la, sa) (lb, sb) = Bitset.equal la lb && Value.hc_equal sa sb
  let hash (l, s) = Value.mix (Bitset.hash l) s.Value.da
end)

let run spec (records : op_record array) =
  let n = Array.length records in
  (* ops that must never linearize are discarded from the start *)
  let excluded = ref Bitset.empty in
  Array.iteri
    (fun i r -> if r.kind = Must_not then excluded := Bitset.set !excluded i)
    records;
  let must = ref Bitset.empty in
  Array.iteri
    (fun i r ->
      match r.kind with
      | Must _ -> must := Bitset.set !must i
      | Must_not | May -> ())
    records;
  (* preds.(i): set of ops whose outcome precedes i's invocation *)
  let preds = Array.make n Bitset.empty in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match records.(j).out with
      | Some out_j when j <> i && out_j < records.(i).inv ->
          preds.(i) <- Bitset.set preds.(i) j
      | Some _ | None -> ()
    done
  done;
  let excluded = !excluded in
  let must = !must in
  let visited = Node_tbl.create 4096 in
  let witness = ref [] in
  (* DFS: returns true iff all Must ops can be linearized from here *)
  let rec go lin (state : Value.hc) =
    if Bitset.subset must lin then true
    else
      let node = (lin, state) in
      if Node_tbl.mem visited node then false
      else begin
        Node_tbl.add visited node ();
        let settled = Bitset.union lin excluded in
        let found = ref false in
        let i = ref 0 in
        while (not !found) && !i < n do
          (* candidate: unsettled, and every real-time predecessor is
             settled (linearized or excluded) *)
          if (not (Bitset.mem settled !i)) && Bitset.subset preds.(!i) settled
          then begin
            let r = records.(!i) in
            let state', resp = spec.Spec.step state.Value.node r.op in
            let resp_ok =
              match r.kind with
              | Must v -> Value.equal resp v
              | May -> true
              | Must_not -> assert false
            in
            if resp_ok && go (Bitset.set lin !i) (Value.hc_of state') then begin
              witness := r.op :: !witness;
              found := true
            end
          end;
          incr i
        done;
        !found
      end
  in
  if go Bitset.empty (Value.hc_of spec.Spec.init) then Ok_linearizable !witness
  else Violation no_lin_msg

let check spec events =
  match analyze events with
  | exception Malformed msg -> Violation ("malformed history: " ^ msg)
  | records -> run spec (Array.of_list records)

(* ------------------------------------------------------------------ *)
(* Incremental engine.

   A session consumes the history one event at a time and maintains the
   {e frontier}: the set of Wing–Gong configurations consistent with the
   prefix so far, eagerly closed under speculatively linearizing any
   currently-pending operation.  A configuration is

     (linearized set, abstract state, promises)

   where [promises] records, for every linearized op whose outcome event
   has not arrived yet, the response the specification produced when it
   was linearized — the outcome event then either confirms the promise
   (the configuration survives, the promise is discharged) or refutes it
   (the configuration dies).  Configurations are deduplicated on all
   three components, keyed on the values' cached digests.

   Event rules, each preserving the closure invariant ("for every
   configuration in the frontier and every pending op not in it, the
   successor configuration is in the frontier too"):

   - [Inv]: register the op as pending, re-close the frontier (worklist
     over the newly reachable configurations);
   - [Ret]/[Rec_ret v]: keep exactly the configurations that linearized
     the op with promised response [v], discharging the promise.
     Survivors of a filter stay closed: a successor of a survivor
     contains the same (op, promise) pair, so it survives too;
   - [Rec_fail]: keep exactly the configurations that did {e not}
     linearize the op; it leaves the pending set, so the closure never
     resurrects it;
   - [Crash]: no constraint (crashes act through the Rec_* events).

   The verdict is O(frontier): nonempty means linearizable (a witness
   is read off the chosen configuration's parent chain), empty means no
   linearization of the {e prefix} exists — and since events only ever
   filter, none will exist for any extension either.

   The frontier for a shared prefix is reused across all siblings via
   [mark]/[rewind]: every event pushes one frame holding the previous
   frontier/pending/op bookkeeping (immutable spines, so a frame is a
   few words), and rewinding pops frames.  Marks are positions and
   strictly LIFO, mirroring the [Nvm.Mem] journal contract: rewinding
   to a mark invalidates every mark taken after it, and using such a
   stale mark raises [Invalid_argument]. *)

type engine = [ `Batch | `Incremental ]

module Session = struct
  type fnode = {
    f_lin : Bitset.t;
    f_state : Value.hc;
    f_promises : (int * Value.hc) list;  (* ascending op index *)
    f_parent : fnode option;
    f_opidx : int;  (* op linearized to create this node; -1 at the root *)
  }

  let rec promises_equal a b =
    match (a, b) with
    | [], [] -> true
    | (i, p) :: a', (j, q) :: b' ->
        i = j && Value.hc_equal p q && promises_equal a' b'
    | _ -> false

  let rec promise_add ps i p =
    match ps with
    | [] -> [ (i, p) ]
    | ((j, _) as hd) :: tl ->
        if i < j then (i, p) :: ps else hd :: promise_add tl i p

  let rec promise_find ps i =
    match ps with
    | [] -> None
    | (j, p) :: tl -> if i = j then Some p else promise_find tl i

  let rec promise_remove ps i =
    match ps with
    | [] -> []
    | ((j, _) as hd) :: tl ->
        if i = j then tl else hd :: promise_remove tl i

  module Ftbl = Hashtbl.Make (struct
    type t = fnode

    let equal a b =
      Bitset.equal a.f_lin b.f_lin
      && Value.hc_equal a.f_state b.f_state
      && promises_equal a.f_promises b.f_promises

    let hash nd =
      List.fold_left
        (fun h (i, p) -> Value.mix h (Value.mix i p.Value.da))
        (Value.mix (Bitset.hash nd.f_lin) nd.f_state.Value.da)
        nd.f_promises
  end)

  type outcome_state = O_pending | O_done | O_failed

  type opinfo = {
    oi_uid : int;
    oi_op : Spec.op;
    mutable oi_state : outcome_state;
  }

  (* Everything one [push_event] changed, for [rewind].  The frontier and
     pending lists are immutable cons spines, so storing the previous
     heads IS the undo record. *)
  type frame = {
    fr_frontier : fnode list;
    fr_n_frontier : int;
    fr_pending : int list;
    fr_new_op : bool;  (* the event registered a new op instance *)
    fr_outcome : (int * outcome_state) option;  (* previous op outcome *)
    fr_malformed : string option;
  }

  type t = {
    spec : Spec.t;
    mutable frontier : fnode list;  (* deduped, deterministic order *)
    mutable n_frontier : int;
    mutable pending : int list;  (* invoked, outcome unseen; ascending *)
    mutable ops : opinfo array;  (* indices 0 .. n_ops-1 live *)
    mutable n_ops : int;
    uid_tbl : (int, int) Hashtbl.t;  (* uid -> op index *)
    mutable malformed : string option;  (* sticky first malformation *)
    mutable frames : frame list;  (* newest-first, one per event *)
    mutable n_events : int;
  }

  let create spec =
    let root =
      {
        f_lin = Bitset.empty;
        f_state = Value.hc_of spec.Spec.init;
        f_promises = [];
        f_parent = None;
        f_opidx = -1;
      }
    in
    {
      spec;
      frontier = [ root ];
      n_frontier = 1;
      pending = [];
      ops = [||];
      n_ops = 0;
      uid_tbl = Hashtbl.create 32;
      malformed = None;
      frames = [];
      n_events = 0;
    }

  let add_op t uid op =
    if t.n_ops = Array.length t.ops then begin
      let cap = max 16 (2 * Array.length t.ops) in
      let b =
        Array.init cap (fun i ->
            if i < t.n_ops then t.ops.(i)
            else { oi_uid = -1; oi_op = op; oi_state = O_pending })
      in
      t.ops <- b
    end;
    t.ops.(t.n_ops) <- { oi_uid = uid; oi_op = op; oi_state = O_pending };
    Hashtbl.replace t.uid_tbl uid t.n_ops;
    t.n_ops <- t.n_ops + 1

  (* Worklist closure after op [fresh] became pending.  The frontier was
     closed under the previous pending set, so only configurations whose
     linearized set contains [fresh] can be new: existing configurations
     try [fresh] alone, newly created ones try every pending op.  FIFO
     processing and ascending [pending] make the resulting frontier
     order (old nodes first, then discovery order) deterministic. *)
  let close t ~fresh =
    match t.frontier with
    | [] -> ()
    | frontier ->
        let tbl = Ftbl.create (4 * t.n_frontier) in
        List.iter (fun nd -> Ftbl.replace tbl nd ()) frontier;
        let q = Queue.create () in
        let added = ref [] in
        let n_added = ref 0 in
        let extend nd i =
          if not (Bitset.mem nd.f_lin i) then begin
            let oi = t.ops.(i) in
            let st', resp = t.spec.Spec.step nd.f_state.Value.node oi.oi_op in
            let nd' =
              {
                f_lin = Bitset.set nd.f_lin i;
                f_state = Value.hc_of st';
                f_promises = promise_add nd.f_promises i (Value.hc_of resp);
                f_parent = Some nd;
                f_opidx = i;
              }
            in
            if not (Ftbl.mem tbl nd') then begin
              Ftbl.add tbl nd' ();
              Queue.add nd' q;
              added := nd' :: !added;
              incr n_added
            end
          end
        in
        List.iter (fun nd -> extend nd fresh) frontier;
        while not (Queue.is_empty q) do
          let nd = Queue.pop q in
          List.iter (extend nd) t.pending
        done;
        if !n_added > 0 then begin
          t.frontier <- frontier @ List.rev !added;
          t.n_frontier <- t.n_frontier + !n_added
        end

  let set_frontier t frontier n =
    t.frontier <- frontier;
    t.n_frontier <- n

  let push_event t (e : Event.t) =
    let fr =
      {
        fr_frontier = t.frontier;
        fr_n_frontier = t.n_frontier;
        fr_pending = t.pending;
        fr_new_op = false;
        fr_outcome = None;
        fr_malformed = t.malformed;
      }
    in
    t.n_events <- t.n_events + 1;
    let push fr = t.frames <- fr :: t.frames in
    let fail fmt =
      Format.kasprintf
        (fun m ->
          t.malformed <- Some m;
          push fr)
        fmt
    in
    match t.malformed with
    | Some _ -> push fr  (* sticky: the first malformation wins *)
    | None -> (
        match e with
        | Crash -> push fr
        | Inv { uid; op; _ } ->
            if Hashtbl.mem t.uid_tbl uid then
              fail "duplicate invocation #%d" uid
            else begin
              add_op t uid op;
              t.pending <- t.pending @ [ t.n_ops - 1 ];
              close t ~fresh:(t.n_ops - 1);
              push { fr with fr_new_op = true }
            end
        | Ret { uid; v; _ } | Rec_ret { uid; v; _ } -> (
            match Hashtbl.find_opt t.uid_tbl uid with
            | None -> fail "response for unknown operation #%d" uid
            | Some idx ->
                let oi = t.ops.(idx) in
                if oi.oi_state <> O_pending then fail "two outcomes for #%d" uid
                else begin
                  oi.oi_state <- O_done;
                  t.pending <- List.filter (fun j -> j <> idx) t.pending;
                  let vh = Value.hc_of v in
                  let n = ref 0 in
                  let survivors =
                    List.filter_map
                      (fun nd ->
                        if Bitset.mem nd.f_lin idx then
                          match promise_find nd.f_promises idx with
                          | Some p when Value.hc_equal p vh ->
                              incr n;
                              Some
                                {
                                  nd with
                                  f_promises = promise_remove nd.f_promises idx;
                                }
                          | Some _ -> None
                          | None ->
                              (* linearized while pending ⇒ promised *)
                              assert false
                        else None)
                      t.frontier
                  in
                  set_frontier t survivors !n;
                  push { fr with fr_outcome = Some (idx, O_pending) }
                end)
        | Rec_fail { uid; _ } -> (
            match Hashtbl.find_opt t.uid_tbl uid with
            | None -> fail "fail verdict for unknown operation #%d" uid
            | Some idx ->
                let oi = t.ops.(idx) in
                if oi.oi_state <> O_pending then fail "two outcomes for #%d" uid
                else begin
                  oi.oi_state <- O_failed;
                  t.pending <- List.filter (fun j -> j <> idx) t.pending;
                  let n = ref 0 in
                  let survivors =
                    List.filter
                      (fun nd ->
                        let keep = not (Bitset.mem nd.f_lin idx) in
                        if keep then incr n;
                        keep)
                      t.frontier
                  in
                  set_frontier t survivors !n;
                  push { fr with fr_outcome = Some (idx, O_pending) }
                end))

  let push_history t events = List.iter (push_event t) events

  let verdict t =
    match t.malformed with
    | Some m -> Violation ("malformed history: " ^ m)
    | None -> (
        match t.frontier with
        | [] -> Violation no_lin_msg
        | nd :: _ ->
            let rec collect nd acc =
              match nd.f_parent with
              | None -> acc
              | Some p -> collect p (t.ops.(nd.f_opidx).oi_op :: acc)
            in
            Ok_linearizable (collect nd []))

  type mark = { mk_n_events : int }

  let mark t = { mk_n_events = t.n_events }

  let rewind t m =
    if m.mk_n_events > t.n_events then
      invalid_arg
        "Lin_check.Session.rewind: stale mark (marks must be used in LIFO \
         order)";
    while t.n_events > m.mk_n_events do
      match t.frames with
      | [] -> assert false  (* n_events = List.length frames *)
      | fr :: rest ->
          t.frames <- rest;
          t.n_events <- t.n_events - 1;
          t.frontier <- fr.fr_frontier;
          t.n_frontier <- fr.fr_n_frontier;
          t.pending <- fr.fr_pending;
          t.malformed <- fr.fr_malformed;
          (match fr.fr_outcome with
          | Some (idx, prev) -> t.ops.(idx).oi_state <- prev
          | None -> ());
          if fr.fr_new_op then begin
            t.n_ops <- t.n_ops - 1;
            Hashtbl.remove t.uid_tbl t.ops.(t.n_ops).oi_uid
          end
    done

  let events t = t.n_events
  let frontier_size t = t.n_frontier
end

let check_with engine spec events =
  match engine with
  | `Batch -> check spec events
  | `Incremental ->
      let s = Session.create spec in
      Session.push_history s events;
      Session.verdict s
