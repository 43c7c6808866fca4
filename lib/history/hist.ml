open Nvm

type op_outcome =
  | Completed of Value.t
  | Recovered of Value.t
  | Failed
  | Pending

type op_info = { uid : int; pid : int; op : Spec.op; outcome : op_outcome }

type stats = {
  invocations : int;
  completed : int;
  recovered : int;
  failed : int;
  pending : int;
  crashes : int;
}

let well_formed events =
  let seen = Hashtbl.create 32 in
  let outcome = Hashtbl.create 32 in
  let rec go = function
    | [] -> Ok ()
    | e :: rest -> (
        match (e : Event.t) with
        | Event.Crash -> go rest
        | Event.Inv { uid; _ } ->
            if Hashtbl.mem seen uid then
              Error (Printf.sprintf "duplicate invocation #%d" uid)
            else begin
              Hashtbl.add seen uid ();
              go rest
            end
        | Event.Ret { uid; _ } | Event.Rec_ret { uid; _ } | Event.Rec_fail { uid; _ }
          ->
            if not (Hashtbl.mem seen uid) then
              Error (Printf.sprintf "outcome for unknown operation #%d" uid)
            else if Hashtbl.mem outcome uid then
              Error (Printf.sprintf "two outcomes for #%d" uid)
            else begin
              Hashtbl.add outcome uid ();
              go rest
            end)
  in
  go events

let ops events =
  (match well_formed events with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Hist.ops: " ^ msg));
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun e ->
      match (e : Event.t) with
      | Event.Crash -> ()
      | Event.Inv { pid; uid; op } ->
          Hashtbl.replace tbl uid { uid; pid; op; outcome = Pending };
          order := uid :: !order
      | Event.Ret { uid; v; _ } ->
          let r = Hashtbl.find tbl uid in
          Hashtbl.replace tbl uid { r with outcome = Completed v }
      | Event.Rec_ret { uid; v; _ } ->
          let r = Hashtbl.find tbl uid in
          Hashtbl.replace tbl uid { r with outcome = Recovered v }
      | Event.Rec_fail { uid; _ } ->
          let r = Hashtbl.find tbl uid in
          Hashtbl.replace tbl uid { r with outcome = Failed })
    events;
  List.rev_map (Hashtbl.find tbl) !order

let responses events =
  List.filter_map
    (fun e ->
      match (e : Event.t) with
      | Event.Ret { v; _ } | Event.Rec_ret { v; _ } -> Some v
      | Event.Inv _ | Event.Crash | Event.Rec_fail _ -> None)
    events

let stats events =
  let infos = ops events in
  let count p = List.length (List.filter p infos) in
  {
    invocations = List.length infos;
    completed = count (fun i -> match i.outcome with Completed _ -> true | _ -> false);
    recovered = count (fun i -> match i.outcome with Recovered _ -> true | _ -> false);
    failed = count (fun i -> i.outcome = Failed);
    pending = count (fun i -> i.outcome = Pending);
    crashes = Event.crashes events;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "%d invocations: %d completed, %d recovered, %d failed, %d pending; %d crashes"
    s.invocations s.completed s.recovered s.failed s.pending s.crashes
