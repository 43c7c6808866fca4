open Dtc_util
open Nvm
open Runtime
open History
open Sched

type stats = {
  mutable crashes : int;
  mutable duplicates : int;  (* values consumed more than once *)
  mutable unresolved : int;  (* op instances with no outcome *)
  mutable informed_fails : int;  (* fail verdicts (the caller knows) *)
  mutable violations : int;  (* checker rejections (must stay 0) *)
}

let run_one ~mk ~seed stats =
  let prng = Dtc_util.Prng.create seed in
  let machine, inst = mk () in
  let cfg =
    {
      Driver.schedule = Schedule.random (Dtc_util.Prng.split prng);
      crash_plan =
        Crash_plan.faulted ~max_crashes:3 ~prob:0.12 (Dtc_util.Prng.split prng);
      policy = Session.Retry;
      max_steps = 200_000;
    }
  in
  (* unique values so duplicates are identifiable; consumers over-poll so
     everything can drain in the crash-free suffix *)
  let workloads =
    [|
      List.init 3 (fun k -> Spec.enq_op (Common.i (100 + k)));
      List.init 3 (fun k -> Spec.enq_op (Common.i (200 + k)));
      List.init 10 (fun _ -> Spec.deq_op);
    |]
  in
  let res = Driver.run machine inst ~workloads cfg in
  stats.crashes <- stats.crashes + res.Driver.crashes;
  (if not (Lin_check.is_ok (Driver.check inst res)) then
     stats.violations <- stats.violations + 1);
  let consumed =
    List.filter_map
      (function
        | Event.Ret { v = Value.Int x; _ } | Event.Rec_ret { v = Value.Int x; _ }
          ->
            Some x
        | _ -> None)
      res.Driver.history
  in
  let sorted = List.sort compare consumed in
  let rec dups = function
    | a :: b :: rest when a = b -> 1 + dups (b :: rest)
    | _ :: rest -> dups rest
    | [] -> 0
  in
  stats.duplicates <- stats.duplicates + dups sorted;
  (* instances with an invocation but no outcome *)
  let outcomes = Hashtbl.create 32 in
  let invs = ref [] in
  List.iter
    (fun e ->
      match (e : Event.t) with
      | Event.Inv { uid; _ } -> invs := uid :: !invs
      | Event.Ret { uid; _ } | Event.Rec_ret { uid; _ } ->
          Hashtbl.replace outcomes uid ()
      | Event.Rec_fail { uid; _ } ->
          Hashtbl.replace outcomes uid ();
          stats.informed_fails <- stats.informed_fails + 1
      | Event.Crash -> ())
    res.Driver.history;
  List.iter
    (fun uid ->
      if not (Hashtbl.mem outcomes uid) then
        stats.unresolved <- stats.unresolved + 1)
    !invs

let table ?(trials = 60) () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E9 (Sec.6): the application-level price of durable-only recovery \
            (%d producer/consumer runs, retry policy, unique values)"
           trials)
      [
        "implementation";
        "crashes";
        "duplicate consumptions";
        "unresolved ops";
        "informed fail verdicts";
        "checker violations";
      ]
  in
  let rows =
    [
      ("dqueue (detectable)", Objects.(mk ~capacity:64 (find "dqueue")) ~n:3);
      ( "dur_queue (durable only)",
        fun () ->
          let m = Machine.create () in
          (m, Baselines.Dur_queue.instance (Baselines.Dur_queue.create m ~n:3 ~capacity:64)) );
      ( "ulog queue (detectable mode)",
        fun () ->
          let m = Machine.create () in
          ( m,
            Detectable.Ulog.instance
              (Detectable.Ulog.create ~mode:`Detectable m ~n:3 ~capacity:64
                 ~spec:(Spec.fifo_queue ())) ) );
      ( "ulog queue (durable mode)",
        fun () ->
          let m = Machine.create () in
          ( m,
            Detectable.Ulog.instance
              (Detectable.Ulog.create ~mode:`Durable m ~n:3 ~capacity:64
                 ~spec:(Spec.fifo_queue ())) ) );
    ]
  in
  List.iter
    (fun (label, mk) ->
      let stats =
        { crashes = 0; duplicates = 0; unresolved = 0; informed_fails = 0; violations = 0 }
      in
      for seed = 1 to trials do
        run_one ~mk ~seed:(7_000 + seed) stats
      done;
      Table.add_row t
        [
          label;
          string_of_int stats.crashes;
          string_of_int stats.duplicates;
          string_of_int stats.unresolved;
          string_of_int stats.informed_fails;
          string_of_int stats.violations;
        ])
    rows;
  t
