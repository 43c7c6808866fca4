open Dtc_util
open Nvm
open History
open Sched

type row = {
  label : string;
  mk : unit -> Runtime.Machine.t * Obj_inst.t;
  workloads : int -> Spec.op list array;
  policy : Session.policy;
  expect_zero : bool;
  crash_prob : float;
  max_crashes : int;
  directed : (unit -> int) option;
      (* some ablations need a directed schedule: random torture rarely
         produces e.g. the ABA re-installation race; the closure returns
         the number of violations the directed run exhibits *)
}

(* The directed ABA attack (the toggle bits' raison d'être): q installs v,
   p's write of w reaches its store to R, a reader observes w, q
   re-installs v — crash.  A recovery that compares only R against its
   pre-write snapshot concludes "not linearized" and, under Give_up,
   abandons a write somebody already read. *)
let aba_directed ~mk () =
  let machine, inst = mk () in
  let workloads =
    [|
      [ Spec.write_op (Value.Int 9) ];
      [ Spec.write_op (Value.Int 5); Spec.write_op (Value.Int 5) ];
      [ Spec.read_op ];
    |]
  in
  let session =
    Session.create ~policy:Session.Give_up machine inst ~workloads
  in
  let mem = Runtime.Machine.mem machine in
  let r =
    let rec find k =
      if k >= Mem.n_locs mem then failwith "no R location"
      else
        let loc = Mem.loc_by_id mem k in
        if loc.Loc.name = "R" then loc else find (k + 1)
    in
    find 0
  in
  let r_value () = Value.nth (Mem.read mem r) 0 in
  let guard = ref 0 in
  let step_until pid pred =
    while not (pred ()) do
      incr guard;
      if !guard > 20_000 then failwith "ABA script did not converge";
      Session.step session pid
    done
  in
  let rets pid =
    List.length
      (List.filter
         (function Event.Ret { pid = p; _ } -> p = pid | _ -> false)
         (Session.history session))
  in
  step_until 1 (fun () -> Value.equal (r_value ()) (Value.Int 5));
  step_until 1 (fun () -> rets 1 >= 1);
  step_until 0 (fun () -> Value.equal (r_value ()) (Value.Int 9));
  step_until 2 (fun () -> rets 2 >= 1);
  step_until 1 (fun () -> Value.equal (r_value ()) (Value.Int 5));
  Session.crash session Fault_model.keep_all;
  let rec drain () =
    match Session.runnable session with
    | [] -> ()
    | pid :: _ ->
        incr guard;
        if !guard > 40_000 then failwith "drain did not converge";
        Session.step session pid;
        drain ()
  in
  drain ();
  let verdict =
    match Session.anomalies session with
    | a :: _ -> Lin_check.Violation ("driver anomaly: " ^ a)
    | [] -> Lin_check.check inst.Obj_inst.spec (Session.history session)
  in
  match verdict with Lin_check.Ok_linearizable _ -> 0 | Lin_check.Violation _ -> 1

let reg_workloads base seed =
  Workload.register (Dtc_util.Prng.create (base + seed)) ~procs:3
    ~ops_per_proc:3 ~values:2

let rows =
  [
    {
      label = "drw (Alg.1), retry";
      mk = (fun () -> Common.mk_drw ());
      workloads = reg_workloads 0;
      policy = Session.Retry;
      expect_zero = true;
      crash_prob = 0.05;
      max_crashes = 2;
      directed = None;
    };
    {
      label = "drw (Alg.1), give-up";
      mk = (fun () -> Common.mk_drw ());
      workloads = reg_workloads 10_000;
      policy = Session.Give_up;
      expect_zero = true;
      crash_prob = 0.05;
      max_crashes = 2;
      directed = None;
    };
    {
      label = "dcas (Alg.2), retry";
      mk = (fun () -> Common.mk_dcas ());
      workloads =
        (fun seed ->
          Workload.cas (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
            ~values:2);
      policy = Session.Retry;
      expect_zero = true;
      crash_prob = 0.05;
      max_crashes = 2;
      directed = None;
    };
    {
      label = "dmax (Alg.3), retry";
      mk = (fun () -> Common.mk_dmax ());
      workloads =
        (fun seed ->
          Workload.max_register (Dtc_util.Prng.create seed) ~procs:3
            ~ops_per_proc:3 ~values:5);
      policy = Session.Retry;
      expect_zero = true;
      crash_prob = 0.05;
      max_crashes = 2;
      directed = None;
    };
    {
      label = "dcounter (capsule), retry";
      mk = (fun () -> Common.mk_dcounter ());
      workloads =
        (fun seed ->
          Workload.counter (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3);
      policy = Session.Retry;
      expect_zero = true;
      crash_prob = 0.05;
      max_crashes = 2;
      directed = None;
    };
    {
      label = "dfaa (capsule), retry";
      mk = (fun () -> Common.mk_dfaa ());
      workloads =
        (fun seed ->
          Workload.faa (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
            ~max_delta:3);
      policy = Session.Retry;
      expect_zero = true;
      crash_prob = 0.05;
      max_crashes = 2;
      directed = None;
    };
    {
      label = "dqueue, retry";
      mk = (fun () -> Common.mk_dqueue ());
      workloads =
        (fun seed ->
          Workload.queue (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
            ~values:3);
      policy = Session.Retry;
      expect_zero = true;
      crash_prob = 0.05;
      max_crashes = 2;
      directed = None;
    };
    {
      label = "urw (unbounded), retry";
      mk = (fun () -> Common.mk_urw ());
      workloads = reg_workloads 20_000;
      policy = Session.Retry;
      expect_zero = true;
      crash_prob = 0.05;
      max_crashes = 2;
      directed = None;
    };
    {
      label = "ucas (unbounded), retry";
      mk = (fun () -> Common.mk_ucas ());
      workloads =
        (fun seed ->
          Workload.cas (Dtc_util.Prng.create (30_000 + seed)) ~procs:3
            ~ops_per_proc:3 ~values:2);
      policy = Session.Retry;
      expect_zero = true;
      crash_prob = 0.05;
      max_crashes = 2;
      directed = None;
    };
    {
      label = "ABLATION drw without toggle bits (directed ABA)";
      mk =
        (fun () ->
          let m = Runtime.Machine.create () in
          (m, Baselines.Broken.drw_no_toggle m ~n:3 ~init:(Value.Int 0)));
      workloads = reg_workloads 40_000;
      policy = Session.Give_up;
      expect_zero = false;
      crash_prob = 0.15;
      max_crashes = 3;
      directed =
        Some
          (fun () ->
            aba_directed
              ~mk:(fun () ->
                let m = Runtime.Machine.create () in
                (m, Baselines.Broken.drw_no_toggle m ~n:3 ~init:(Value.Int 0)))
              ());
    };
    {
      label = "ABLATION dcas without flip vector";
      mk =
        (fun () ->
          let m = Runtime.Machine.create () in
          (m, Baselines.Broken.dcas_no_vec m ~n:3 ~init:(Value.Int 0)));
      workloads =
        (fun seed ->
          Workload.cas (Dtc_util.Prng.create (50_000 + seed)) ~procs:3
            ~ops_per_proc:3 ~values:2);
      policy = Session.Retry;
      expect_zero = false;
      crash_prob = 0.15;
      max_crashes = 3;
      directed = None;
    };
    {
      label = "drw (Alg.1) under the same directed ABA";
      mk = (fun () -> Common.mk_drw ());
      workloads = reg_workloads 45_000;
      policy = Session.Give_up;
      expect_zero = true;
      crash_prob = 0.15;
      max_crashes = 3;
      directed = Some (fun () -> aba_directed ~mk:(fun () -> Common.mk_drw ()) ());
    };
    {
      (* the plain register's single-step write is crash-atomic in the
         simulation, so the queue — whose enqueue has a window between
         its link CAS and its return — is the not-recoverable exhibit *)
      label = "ABLATION plain queue (not recoverable)";
      mk =
        (fun () ->
          let m = Runtime.Machine.create () in
          (m, Baselines.Plain.queue m ~capacity:64));
      workloads =
        (fun seed ->
          Workload.queue (Dtc_util.Prng.create (60_000 + seed)) ~procs:3
            ~ops_per_proc:3 ~values:3);
      policy = Session.Give_up;
      expect_zero = false;
      crash_prob = 0.15;
      max_crashes = 3;
      directed = None;
    };
  ]

let table ?(trials = 60) () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E6 (Lemmas 1-2): crash torture, %d random runs per row (3 procs, random schedules, <=2 crashes)"
           trials)
      [ "implementation"; "runs"; "crashes"; "violations"; "expected"; "as predicted" ]
  in
  List.iter
    (fun r ->
      let runs, violations, crashes =
        match r.directed with
        | Some f -> (1, f (), 1)
        | None ->
            let violations, crashes =
              Common.torture_count ~policy:r.policy ~crash_prob:r.crash_prob
                ~max_crashes:r.max_crashes ~trials ~mk:r.mk
                ~workloads_of_seed:r.workloads ()
            in
            (trials, violations, crashes)
      in
      let ok = if r.expect_zero then violations = 0 else violations > 0 in
      Table.add_row t
        [
          r.label;
          string_of_int runs;
          string_of_int crashes;
          string_of_int violations;
          (if r.expect_zero then "0" else ">0");
          (if ok then "yes" else "NO");
        ])
    rows;
  t
