open History

type result = {
  decisions : Decision.t list;
  history : Event.t list;
  msg : string;
  attempts : int;
}

(* driver anomalies short-circuit; otherwise [verdict ()] judges the
   history *)
let judge (r : Driver.result) verdict =
  let v =
    match Driver.anomaly_verdict r.anomalies with
    | Some v -> v
    | None -> verdict ()
  in
  match v with
  | Lin_check.Ok_linearizable _ -> None
  | Lin_check.Violation msg -> Some (r.history, msg)

let reproduces ~mk ~workloads ?(policy = Session.Retry)
    ?(wipe = Nvm.Fault_model.keep_all) ?(max_steps = 5_000) decisions =
  let machine, inst = mk () in
  let session = Session.create ~policy machine inst ~workloads in
  let r = Driver.replay ~wipe ~max_steps session decisions in
  judge r (fun () -> Lin_check.check inst.Obj_inst.spec r.history)

(* Greedy single-deletion passes until no deletion preserves the
   violation (1-minimality), over ONE undo session for the whole search.
   Deleting index [k] leaves the first [k] decisions of the current
   sequence unchanged, and the greedy pass walks [k] upward, so the
   session is simply advanced through the kept prefix one decision at a
   time; a candidate is then evaluated by taking a mark where the
   session stands, running only its tail plus the free run, and
   rewinding.  Candidate
   cost drops from O(whole sequence) to O(its tail), and nothing is ever
   replayed from the root.  Marks stay LIFO: the only outstanding mark is
   the candidate-local one, plus the root mark used to restart passes.
   Successive passes can regenerate a candidate already tried (deleting
   i then j yields the same list as deleting j then i); the outcome is a
   pure function of the decision list, so it is memoised and [attempts]
   counts only physical executions.

   A [Lin_check.Session] shadows the undo session mark-for-mark:
   kept-prefix events are pushed below the candidate mark (so their
   frontier survives the rewind and is shared by every later candidate
   of the pass), the candidate's own tail events above it. *)

let minimise ~mk ~workloads ?(policy = Session.Retry)
    ?(wipe = Nvm.Fault_model.keep_all) ?(max_steps = 5_000) decisions =
  let machine, inst = mk () in
  let session = Session.create ~policy ~undo:true machine inst ~workloads in
  let lin = Lin_check.Session.create inst.Obj_inst.spec in
  (* push the sched-session events the checker session has not seen yet
     (the two rewind in lockstep, so the gap is always a suffix) *)
  let sync () =
    let missing = Session.event_count session - Lin_check.Session.events lin in
    let rec take_rev k acc l =
      if k = 0 then acc
      else match l with [] -> acc | e :: tl -> take_rev (k - 1) (e :: acc) tl
    in
    Lin_check.Session.push_history lin
      (take_rev missing [] (Session.events_rev session))
  in
  let lin_mark () =
    sync ();
    Lin_check.Session.mark lin
  in
  let root = Session.mark session in
  let lin_root = lin_mark () in
  let attempts = ref 0 in
  let seen = Hashtbl.create 64 in
  (* session stands at the state reached by [candidate]'s first decisions;
     [tail] is the rest of [candidate].  Leaves the session where it
     stood. *)
  let try_candidate ~tail candidate =
    match Hashtbl.find_opt seen candidate with
    | Some cached -> cached
    | None ->
        incr attempts;
        let m = Session.mark session in
        let lm = lin_mark () in
        let outcome =
          judge (Driver.replay ~wipe ~max_steps session tail) (fun () ->
              sync ();
              Lin_check.Session.verdict lin)
        in
        Session.rewind session m;
        Lin_check.Session.rewind lin lm;
        Hashtbl.replace seen candidate outcome;
        outcome
  in
  match try_candidate ~tail:decisions decisions with
  | None -> None
  | Some (history0, msg0) ->
      let rec shrink (cur, history, msg) =
        (* session stands at the root here *)
        let arr = Array.of_list cur in
        let n = Array.length arr in
        let rec try_deletions k =
          (* session stands after arr.(0..k-1) *)
          if k >= n then None
          else
            let candidate = List.filteri (fun idx _ -> idx <> k) cur in
            let tail = Array.to_list (Array.sub arr (k + 1) (n - k - 1)) in
            match try_candidate ~tail candidate with
            | Some (h, m) -> Some (candidate, h, m)
            | None ->
                Driver.apply ~wipe session arr.(k);
                try_deletions (k + 1)
        in
        let next = try_deletions 0 in
        Session.rewind session root;
        Lin_check.Session.rewind lin lin_root;
        match next with
        | Some shorter -> shrink shorter
        | None -> (cur, history, msg)
      in
      let ds, history, msg = shrink (decisions, history0, msg0) in
      Some { decisions = ds; history; msg; attempts = !attempts }
