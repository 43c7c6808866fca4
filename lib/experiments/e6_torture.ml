open Dtc_util
open Nvm
open History
open Sched

type run =
  | Torture of Session.policy * (int -> Spec.op list array)
  | Exhaustive of Session.policy * Spec.op list array
      (* a calibration row's verdict must not rest on a random sample
         finding its window, so it explores every schedule with at most
         one context switch and one crash *)
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
  let res = Driver.replay ~max_steps:40_000 session [ Decision.Crash ] in
  if res.Driver.incomplete then failwith "drain did not converge";
  Driver.check inst res

let reg_workloads seed =
  Workload.register (Prng.create seed) ~procs:3 ~ops_per_proc:3 ~values:2

let cas_workloads seed =
  Workload.cas (Prng.create seed) ~procs:3 ~ops_per_proc:3 ~values:2

let queue_workloads seed =
  Workload.queue (Prng.create seed) ~procs:3 ~ops_per_proc:3 ~values:3

(* the paper's algorithms face crash torture and must score zero *)
let torture ?(policy = Session.Retry) workloads = Torture (policy, workloads)

let obj ?capacity name = Objects.mk ?capacity (Objects.find name) ~n:3

let row label mk run = { label; mk; expect_zero = true; run }
let broken label mk run = { label; mk; expect_zero = false; run }
let cas a b = Spec.cas_op (Value.Int a) (Value.Int b)
let enq v = Spec.enq_op (Value.Int v)

let rows =
  [
    row "drw (Alg.1), retry" (obj "drw") (torture reg_workloads);
    row "drw (Alg.1), give-up" (obj "drw")
      (torture ~policy:Session.Give_up reg_workloads);
    row "dcas (Alg.2), retry" (obj "dcas") (torture cas_workloads);
    row "dmax (Alg.3), retry" (obj "dmax")
      (torture (fun seed ->
           Workload.max_register (Prng.create seed) ~procs:3 ~ops_per_proc:3
             ~values:5));
    row "dcounter (capsule), retry" (obj "dcounter")
      (torture (fun seed ->
           Workload.counter (Prng.create seed) ~procs:3 ~ops_per_proc:3));
    row "dfaa (capsule), retry" (obj "dfaa")
      (torture (fun seed ->
           Workload.faa (Prng.create seed) ~procs:3 ~ops_per_proc:3
             ~max_delta:3));
    row "dqueue, retry" (obj ~capacity:64 "dqueue") (torture queue_workloads);
    row "urw (unbounded), retry" (obj "urw") (torture reg_workloads);
    row "ucas (unbounded), retry" (obj "ucas") (torture cas_workloads);
    broken "ABLATION drw without toggle bits (directed ABA)"
      (obj "broken-drw-no-toggle") Directed_aba;
    broken "ABLATION dcas without flip vector (exhaustive)"
      (obj "broken-dcas-no-vec")
      (Exhaustive
         (Session.Retry, [| [ cas 0 1; cas 1 0 ]; [ cas 0 1 ]; [ Spec.read_op ] |]));
    row "drw (Alg.1) under the same directed ABA" (obj "drw") Directed_aba;
    (* the plain register's single-step write is crash-atomic in the
       simulation, so the queue — whose enqueue has a window between its
       link CAS and its return — is the not-recoverable exhibit *)
    broken "ABLATION plain queue (not recoverable, exhaustive)"
      (fun () ->
        let m = Runtime.Machine.create () in
        (m, Baselines.Plain.queue m ~capacity:64))
      (Exhaustive
         (Session.Give_up, [| [ enq 1; Spec.deq_op ]; [ enq 2 ]; [ Spec.deq_op ] |]));
  ]

(* the cells of the row at [index] and whether it is as predicted; a
   torture row runs on root seed [index + 1], fixed before any result *)
let run_row ~trials index r =
  let runs, crashes, violations =
    match r.run with
    | Directed_aba ->
        (1, "1", if Lin_check.is_ok (aba_directed ~mk:r.mk) then 0 else 1)
    | Exhaustive (policy, workloads) ->
        let o =
          Modelcheck.Explore.explore ~mk:r.mk ~workloads
            { Modelcheck.Explore.default_config with
              switch_budget = 1; crash_budget = 1; policy }
        in
        (o.executions, "<=1 each", o.total_violations)
    | Torture (policy, workloads_of_seed) ->
        let report =
          Torture.run ~root_seed:(index + 1) ~trials ~shrink:false
            (Torture.default_spec_of ~policy ~label:r.label ~mk:r.mk
               ~workloads_of_seed ())
        in
        (trials, string_of_int report.crashes_injected, Common.violations report)
  in
  ( [ r.label; string_of_int runs; crashes; string_of_int violations;
      (if r.expect_zero then "0" else ">0") ],
    r.expect_zero = (violations = 0) )

let table ?(trials = 60) () =
  Common.predicted_table
    ~title:
      (Printf.sprintf
         "E6 (Lemmas 1-2): crash torture, %d random runs per row (3 procs, random schedules, <=2 crashes); ablations run a directed script or every schedule with <=1 switch, <=1 crash"
         trials)
    [ "implementation"; "runs"; "crashes"; "violations"; "expected" ]
    (List.mapi (run_row ~trials) rows)

let all_as_predicted ?(trials = 60) () =
  List.for_all snd (List.mapi (run_row ~trials) rows)
