open Dtc_util
open Runtime
open History
open Sched

let i = Common.i

let nrl_run ~trials ~mk ~workloads_of_seed =
  let violations = ref 0 in
  let fail_answers = ref 0 in
  let never_started = ref 0 in
  let rec_rets = ref 0 in
  for seed = 1 to trials do
    let prng = Dtc_util.Prng.create seed in
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
      {
        Driver.schedule = Schedule.random (Dtc_util.Prng.split prng);
        crash_plan =
          Crash_plan.faulted ~max_crashes:2 ~prob:0.08 (Dtc_util.Prng.split prng);
        policy = Session.Retry;
        max_steps = 50_000;
      }
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

let table_nrl ?(trials = 60) () =
  let t =
    Table.create
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
      ]
  in
  let rows =
    [
      ( "nrl(drw)",
        (fun () ->
          let m = Machine.create () in
          ( m,
            Detectable.Nrl.wrap
              (Detectable.Drw.instance (Detectable.Drw.create m ~n:3 ~init:(i 0))) )),
        fun seed ->
          Workload.register (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
            ~values:2 );
      ( "nrl(dcas)",
        (fun () ->
          let m = Machine.create () in
          ( m,
            Detectable.Nrl.wrap
              (Detectable.Dcas.instance (Detectable.Dcas.create m ~n:3 ~init:(i 0))) )),
        fun seed ->
          Workload.cas (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:3
            ~values:2 );
      ( "dcas (unwrapped, for contrast)",
        Objects.(mk (find "dcas")) ~n:3,
        fun seed ->
          Workload.cas (Dtc_util.Prng.create (77 + seed)) ~procs:3 ~ops_per_proc:3
            ~values:2 );
    ]
  in
  List.iter
    (fun (label, mk, wl) ->
      let violations, fail_answers, never_started, rec_rets =
        nrl_run ~trials ~mk ~workloads_of_seed:wl
      in
      Table.add_row t
        [
          label;
          string_of_int violations;
          string_of_int fail_answers;
          string_of_int rec_rets;
          string_of_int never_started;
        ])
    rows;
  t

let table_shared_cache ?(trials = 60) () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E8b (Sec.6): shared-cache model, adversarial partial write-back (%d runs)"
           trials)
      [ "implementation"; "persist instrumented"; "violations"; "expected" ]
  in
  let row label ~persist ~expect_zero ?capacity name wl =
    let mk =
      Objects.mk ~model:Machine.Shared_cache ~persist ?capacity
        (Objects.find name) ~n:3
    in
    let violations, _ =
      Common.torture_count
        ~fault:(Nvm.Fault_model.Drop { keep_prob = 0.5 })
        ~crash_prob:0.08 ~trials ~mk ~workloads_of_seed:wl ()
    in
    Table.add_row t
      [
        label;
        (if persist then "yes" else "no");
        string_of_int violations;
        (if expect_zero then "0" else ">0");
      ]
  in
  let reg_wl base seed =
    Workload.register (Dtc_util.Prng.create (base + seed)) ~procs:3
      ~ops_per_proc:3 ~values:2
  in
  row "drw" ~persist:true ~expect_zero:true "drw" (reg_wl 0);
  row "drw (untransformed)" ~persist:false ~expect_zero:false "drw" (reg_wl 1000);
  row "dcas" ~persist:true ~expect_zero:true "dcas"
    (fun seed ->
      Workload.cas (Dtc_util.Prng.create (2000 + seed)) ~procs:3 ~ops_per_proc:3
        ~values:2);
  row "dmax" ~persist:true ~expect_zero:true "dmax"
    (fun seed ->
      Workload.max_register (Dtc_util.Prng.create (3000 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:5);
  row "dqueue" ~persist:true ~expect_zero:true ~capacity:64 "dqueue"
    (fun seed ->
      Workload.queue (Dtc_util.Prng.create (4000 + seed)) ~procs:3
        ~ops_per_proc:3 ~values:3);
  t
