(* Tests for the decision type and replay: the codec round-trips, and a
   complete decision sequence an engine reports replays, under
   Driver.replay from a fresh session, to the violation it reported. *)

open History
open Sched

(* The one decision codec: every decision survives encode/decode, and a
   string decodes only if it is exactly some decision's spelling; any
   other string is an error that names it. *)
let prop_decision_codec =
  let open Decision in
  let decision =
    QCheck.Gen.(
      oneof [ return Crash; map (fun p -> Step p) (oneof [ small_nat; int ]) ])
  in
  let spelling =
    QCheck.Gen.(
      oneof
        [
          map to_string decision;
          string_size ~gen:(oneofl [ 'p'; 'P'; '0'; '1'; '9'; '-'; '+'; ' ' ])
            (int_bound 5);
          oneofl [ ""; "p"; "CRASH "; "crash"; "p01"; "p+1"; "p 1"; "p1_0" ];
          string_size (int_bound 8);
        ])
  in
  QCheck.Test.make ~name:"decision codec round-trips" ~count:2000
    QCheck.(
      make
        ~print:(fun (d, s) -> Printf.sprintf "%s / %S" (to_string d) s)
        Gen.(pair decision spelling))
    (fun (d, s) ->
      of_string (to_string d) = Ok d
      &&
      match of_string s with
      | Ok d' -> to_string d' = s
      | Error m -> m = Printf.sprintf "bad decision %S" s)

let fresh_session ?(policy = Session.Retry) mk ~workloads =
  let machine, inst = mk () in
  (inst, Session.create ~policy machine inst ~workloads)

(* every violation sample the explorer returns replays to a violation
   with the same history *)
let test_explorer_violations_replay () =
  let cas a b = Spec.cas_op (Nvm.Value.Int a) (Nvm.Value.Int b) in
  let cases =
    [
      ( "broken-rw-refail",
        [|
          [ Spec.write_op (Nvm.Value.Int 1) ];
          [ Spec.read_op; Spec.write_op (Nvm.Value.Int 0); Spec.read_op ];
        |] );
      ("broken-dcas-no-vec", [| [ cas 0 1 ]; [ cas 1 0 ] |]);
    ]
  in
  List.iter
    (fun (name, workloads) ->
      let mk = Objects.mk (Objects.find name) ~n:2 in
      let cfg = Modelcheck.Explore.default_config in
      let out = Modelcheck.Explore.explore ~mk ~workloads cfg in
      if out.violations = [] then Alcotest.failf "%s: no violation sampled" name;
      List.iter
        (fun (v : Modelcheck.Explore.violation) ->
          let inst, session = fresh_session mk ~workloads in
          let r = Driver.replay ~max_steps:cfg.max_steps session v.decisions in
          if Lin_check.is_ok (Driver.check inst r) then
            Alcotest.failf "%s: %s replays clean" name
              (Decision.schedule_to_string v.decisions);
          Alcotest.(check bool)
            (name ^ ": same history") true (r.history = v.history))
        out.violations)
    cases

(* torture's first failure replays, under the failing trial's own wipe,
   to the trial's history and a violation: the atomic run of the CLI's
   [torture -o broken-dcas-no-vec --trials 400 --seed 3 --crash-prob
   0.15], and torn-write runs whose wipe is seeded; the real dcas fails
   only through its torn wipe, so a replay that lost the wipe would not
   violate *)
let test_torture_failure_replays () =
  List.iter
    (fun (name, fault, root, crash_prob) ->
      let obj = Objects.find name in
      let fault = Result.get_ok (Nvm.Fault_model.of_string fault) in
      let model, persist = Objects.machine_for fault in
      let spec =
        Torture.default_spec_of ~label:name
          ~mk:(Objects.mk ~model ~persist obj ~n:3)
          ~workloads_of_seed:(fun s ->
            Objects.workloads obj (Dtc_util.Prng.create s) ~procs:3
              ~ops_per_proc:3)
          ~crash_prob ~max_crashes:3 ~max_steps:100_000 ~fault ()
      in
      let r = Torture.run ~root_seed:root ~trials:400 ~shrink:false spec in
      match r.first_failure with
      | None -> Alcotest.failf "%s: no torture failure to replay" name
      | Some f ->
          let tr =
            Torture.run_trial spec ~scratch:(Session.make_scratch ()) ~root
              ~index:f.trial
          in
          Alcotest.(check bool) "the trace is the schedule" true
            (tr.t_trace = f.schedule);
          let wipe =
            match fault with
            | Nvm.Fault_model.Atomic -> Nvm.Fault_model.keep_all
            | fault -> Nvm.Fault_model.Seeded (fault, tr.t_fault_seed)
          in
          let inst, session =
            fresh_session ~policy:spec.policy spec.mk
              ~workloads:(spec.workloads_of_seed f.seed)
          in
          let res =
            Driver.replay ~wipe ~max_steps:spec.max_steps session f.schedule
          in
          (* the trial itself, re-run from its stream the way
             [Torture.run_trial] draws it: workload seed, then config *)
          let orig =
            let prng = Dtc_util.Prng.stream root ~index:f.trial in
            ignore (Dtc_util.Prng.next_int64 prng : int64);
            let machine, inst = spec.mk () in
            Driver.run machine inst ~workloads:(spec.workloads_of_seed f.seed)
              (Driver.seeded_config ~policy:spec.policy ~fault
                 ~max_steps:spec.max_steps ~max_crashes:spec.max_crashes
                 ~crash_prob:spec.crash_prob prng)
          in
          Alcotest.(check int) "same steps" tr.t_steps res.steps;
          Alcotest.(check int) "same crashes" tr.t_crashes res.crashes;
          Alcotest.(check bool) "same history as the trial" true
            (res.history = orig.history);
          Alcotest.(check bool) "replays as a violation" false
            (Lin_check.is_ok (Driver.check inst res)))
    [
      ("broken-dcas-no-vec", "atomic", 3, 0.15);
      ("broken-dcas-no-vec", "torn:1", 1, 0.15);
      ("dcas", "torn:1", 1, 0.05);
    ]

let suites =
  [
    ( "sched.decision",
      [
        QCheck_alcotest.to_alcotest prop_decision_codec;
        Alcotest.test_case "explorer violations replay" `Quick
          test_explorer_violations_replay;
        Alcotest.test_case "torture failure replays" `Quick
          test_torture_failure_replays;
      ] );
  ]
