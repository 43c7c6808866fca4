open Runtime
open History
open Sched

let nrl_run ~trials ~mk ~workloads_of_seed =
  let violations = ref 0 in
  let fail_answers = ref 0 in
  let never_started = ref 0 in
  let rec_rets = ref 0 in
  for seed = 1 to trials do
    let machine, inst = mk () in
    (* count the recovery function's actual answers: an NRL recovery that
       runs must never answer fail *)
    let recover ~pid op =
      let r = inst.Obj_inst.recover ~pid op in
      if Obj_inst.is_fail r then incr fail_answers;
      r
    in
    let inst = { inst with Obj_inst.recover } in
    let cfg =
      Driver.seeded_config ~max_steps:50_000 ~max_crashes:2 ~crash_prob:0.08
        (Dtc_util.Prng.create seed)
    in
    let res = Driver.run machine inst ~workloads:(workloads_of_seed seed) cfg in
    if not (Lin_check.is_ok (Driver.check inst res)) then incr violations;
    List.iter
      (function
        | Event.Rec_fail _ -> incr never_started
        | Event.Rec_ret _ -> incr rec_rets
        | _ -> ())
      res.Driver.history
  done;
  (!violations, !fail_answers, !never_started, !rec_rets)

(* every E8a row as cells and whether it is as predicted: no row may
   violate, and only the unwrapped contrast row's recovery answers fail *)
let nrl_rows ~trials =
  let nrl name () =
    let m, inst = Objects.mk (Objects.find name) ~n:3 () in
    (m, Detectable.Nrl.wrap inst)
  in
  List.map
    (fun (label, wrapped, mk, workloads_of_seed) ->
      let violations, fail_answers, never_started, rec_rets =
        nrl_run ~trials ~mk ~workloads_of_seed
      in
      ( [
          label;
          string_of_int violations;
          string_of_int fail_answers;
          string_of_int rec_rets;
          string_of_int never_started;
          (if wrapped then "0" else ">0");
        ],
        violations = 0 && wrapped = (fail_answers = 0) ))
    [
      ( "nrl(drw)", true,
        nrl "drw",
        fun seed ->
          Workload.register (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
            ~values:2 );
      ( "nrl(dcas)", true,
        nrl "dcas",
        fun seed ->
          Workload.cas (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
            ~values:2 );
      ( "dcas (unwrapped, for contrast)", false,
        Objects.(mk (find "dcas")) ~n:3,
        fun seed ->
          Workload.cas (Dtc_util.Prng.create (77 + seed)) ~procs:3 ~ops_per_proc:3
            ~values:2 );
    ]

(* every E8b row as cells and whether it is as predicted: a
   persist-instrumented row must score zero, the untransformed one above
   zero; row [index] runs on root seed [index + 1] *)
let shared_cache_rows ~trials =
  let wl gen ~values seed =
    gen (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3 ~values
  in
  List.mapi
    (fun index (label, persist, name, capacity, workloads_of_seed) ->
      let mk =
        Objects.mk ~model:Machine.Shared_cache ~persist ?capacity
          (Objects.find name) ~n:3
      in
      let violations =
        Common.violations
          (Torture.run ~root_seed:(index + 1) ~trials ~shrink:false
             (Torture.default_spec_of
                ~fault:(Nvm.Fault_model.Drop { keep_prob = 0.5 })
                ~crash_prob:0.08 ~label ~mk ~workloads_of_seed ()))
      in
      ( [
          label;
          (if persist then "yes" else "no");
          string_of_int violations;
          (if persist then "0" else ">0");
        ],
        persist = (violations = 0) ))
    [
      ("drw", true, "drw", None, wl Workload.register ~values:2);
      ("drw (untransformed)", false, "drw", None, wl Workload.register ~values:2);
      ("dcas", true, "dcas", None, wl Workload.cas ~values:2);
      ("dmax", true, "dmax", None, wl Workload.max_register ~values:5);
      ("dqueue", true, "dqueue", Some 64, wl Workload.queue ~values:3);
    ]

let table_nrl ?(trials = 60) () =
  Common.predicted_table
    ~title:
      (Printf.sprintf
         "E8a (Sec.6): NRL wrapper — recovery completes the operation, never fails (%d runs)"
         trials)
    [
      "implementation";
      "violations";
      "recovery answered fail";
      "recovery answered response";
      "Rec_fail events (incl. never-started ops)";
      "expected fail answers";
    ]
    (nrl_rows ~trials)

let table_shared_cache ?(trials = 60) () =
  Common.predicted_table
    ~title:
      (Printf.sprintf
         "E8b (Sec.6): shared-cache model, adversarial partial write-back (%d runs)"
         trials)
    [ "implementation"; "persist instrumented"; "violations"; "expected" ]
    (shared_cache_rows ~trials)

let all_as_predicted ?(trials = 60) () =
  List.for_all snd (nrl_rows ~trials @ shared_cache_rows ~trials)
