open Dtc_util
open Nvm
open History
open Sched

type run =
  | Torture of {
      workloads : int -> Spec.op list array;
      policy : Session.policy;
      crash_prob : float;
      max_crashes : int;
    }
  | Directed_aba
      (* random torture rarely produces the ABA re-installation race, so
         the row runs [aba_directed] once instead *)

type row = {
  label : string;
  mk : unit -> Runtime.Machine.t * Obj_inst.t;
  expect_zero : bool;
  run : run;
}

(* The script is guided by the register's contents, not by step counts,
   so it drives any variant whose only shared location named "R" holds
   the (value, writer) pair. *)
let aba_directed ~mk =
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
  (* p1's first write lands and completes *)
  step_until 1 (fun () -> Value.equal (r_value ()) (Value.Int 5));
  step_until 1 (fun () -> rets 1 >= 1);
  (* p0 runs exactly until its store to R *)
  step_until 0 (fun () -> Value.equal (r_value ()) (Value.Int 9));
  (* p2 observes p0's value *)
  step_until 2 (fun () -> rets 2 >= 1);
  (* p1 re-installs (5, p1) *)
  step_until 1 (fun () -> Value.equal (r_value ()) (Value.Int 5));
  Session.crash session Fault_model.keep_all;
  let res =
    Driver.run_session session ~schedule:(Schedule.scripted [])
      ~crash_plan:Crash_plan.none ~max_steps:40_000
  in
  if res.Driver.incomplete then failwith "drain did not converge";
  Driver.check inst res

let reg_workloads base seed =
  Workload.register (Prng.create (base + seed)) ~procs:3 ~ops_per_proc:3
    ~values:2

let cas_workloads base seed =
  Workload.cas (Prng.create (base + seed)) ~procs:3 ~ops_per_proc:3 ~values:2

let queue_workloads base seed =
  Workload.queue (Prng.create (base + seed)) ~procs:3 ~ops_per_proc:3
    ~values:3

(* the paper's algorithms face mild torture and must score zero; the
   ablations face harsher torture and must score above zero *)
let correct ?(policy = Session.Retry) workloads =
  Torture { workloads; policy; crash_prob = 0.05; max_crashes = 2 }

let ablation ~policy workloads =
  Torture { workloads; policy; crash_prob = 0.15; max_crashes = 3 }

let obj ?capacity name = Objects.mk ?capacity (Objects.find name) ~n:3

let row label mk run = { label; mk; expect_zero = true; run }
let broken label mk run = { label; mk; expect_zero = false; run }

let rows =
  [
    row "drw (Alg.1), retry" (obj "drw") (correct (reg_workloads 0));
    row "drw (Alg.1), give-up" (obj "drw")
      (correct ~policy:Session.Give_up (reg_workloads 10_000));
    row "dcas (Alg.2), retry" (obj "dcas") (correct (cas_workloads 0));
    row "dmax (Alg.3), retry" (obj "dmax")
      (correct (fun seed ->
           Workload.max_register (Prng.create seed) ~procs:3 ~ops_per_proc:3
             ~values:5));
    row "dcounter (capsule), retry" (obj "dcounter")
      (correct (fun seed ->
           Workload.counter (Prng.create seed) ~procs:3 ~ops_per_proc:3));
    row "dfaa (capsule), retry" (obj "dfaa")
      (correct (fun seed ->
           Workload.faa (Prng.create seed) ~procs:3 ~ops_per_proc:3
             ~max_delta:3));
    row "dqueue, retry" (obj ~capacity:64 "dqueue") (correct (queue_workloads 0));
    row "urw (unbounded), retry" (obj "urw") (correct (reg_workloads 20_000));
    row "ucas (unbounded), retry" (obj "ucas") (correct (cas_workloads 30_000));
    broken "ABLATION drw without toggle bits (directed ABA)"
      (obj "broken-drw-no-toggle") Directed_aba;
    broken "ABLATION dcas without flip vector" (obj "broken-dcas-no-vec")
      (ablation ~policy:Session.Retry (cas_workloads 50_000));
    row "drw (Alg.1) under the same directed ABA" (obj "drw") Directed_aba;
    (* the plain register's single-step write is crash-atomic in the
       simulation, so the queue — whose enqueue has a window between its
       link CAS and its return — is the not-recoverable exhibit *)
    broken "ABLATION plain queue (not recoverable)"
      (fun () ->
        let m = Runtime.Machine.create () in
        (m, Baselines.Plain.queue m ~capacity:64))
      (ablation ~policy:Session.Give_up (queue_workloads 60_000));
  ]

(* (runs, violations, crashes, as predicted) of one row *)
let run_row ~trials r =
  let runs, violations, crashes =
    match r.run with
    | Directed_aba -> (
        match aba_directed ~mk:r.mk with
        | Lin_check.Violation _ -> (1, 1, 1)
        | Lin_check.Ok_linearizable _ -> (1, 0, 1))
    | Torture { workloads; policy; crash_prob; max_crashes } ->
        let violations, crashes =
          Common.torture_count ~policy ~crash_prob ~max_crashes ~trials
            ~mk:r.mk ~workloads_of_seed:workloads ()
        in
        (trials, violations, crashes)
  in
  (runs, violations, crashes, if r.expect_zero then violations = 0 else violations > 0)

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
      let runs, violations, crashes, ok = run_row ~trials r in
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

let all_as_predicted ?(trials = 60) () =
  List.for_all (fun r -> let _, _, _, ok = run_row ~trials r in ok) rows
