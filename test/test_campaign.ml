(* Tests for the multi-process campaign supervisor (lib/campaign).

   The test binary doubles as its own worker: when spawned as
   [test_main.exe campaign-worker OBJ ROOT LO HI HB FAULT] it runs
   {!Campaign.worker_main} on the named slice instead of the Alcotest
   suites (see the dispatch at the top of test_main.ml).  That keeps the
   supervisor tests hermetic — no dependency on detect_cli being built —
   while still exercising real processes, real pipes and real waitpid.

   The contract under test is the one the paper's determinism gives us
   for free: trial [i] is a pure function of [(spec, root_seed, i)], so
   whatever the supervisor has to do — rescue dead workers, SIGKILL hung
   ones, degrade parallelism, fall back in-process — the merged report
   must be byte-identical to a plain single-process {!Torture.run}. *)

open Sched

let dcas_spec () =
  Torture.default_spec_of ~label:"dcas"
    ~mk:(fun () -> Test_support.mk_dcas ~n:3 ())
    ~workloads_of_seed:(fun s ->
      Workload.cas (Dtc_util.Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:2)
    ()

let broken_spec () =
  Torture.default_spec_of ~label:"broken-dcas-no-vec" ~crash_prob:0.15
    ~max_crashes:3
    ~mk:(fun () ->
      let m = Runtime.Machine.create () in
      (m, Baselines.Broken.dcas_no_vec m ~n:3 ~init:(Nvm.Value.Int 0)))
    ~workloads_of_seed:(fun s ->
      Workload.cas (Dtc_util.Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:2)
    ()

let spec_of_name = function
  | "dcas" -> dcas_spec ()
  | "broken" -> broken_spec ()
  | o -> failwith ("campaign-worker: unknown test object " ^ o)

let name_of_spec (spec : Torture.spec) =
  match spec.Torture.label with
  | "dcas" -> "dcas"
  | "broken-dcas-no-vec" -> "broken"
  | l -> failwith ("no worker name for spec " ^ l)

let fault_to_string = function
  | Campaign.No_fault -> "none"
  | Campaign.Kill_after k -> Printf.sprintf "kill:%d" k
  | Campaign.Hang_after k -> Printf.sprintf "hang:%d" k

let fault_of_string s =
  match String.split_on_char ':' s with
  | [ "none" ] -> Campaign.No_fault
  | [ "kill"; k ] -> Campaign.Kill_after (int_of_string k)
  | [ "hang"; k ] -> Campaign.Hang_after (int_of_string k)
  | _ -> failwith ("campaign-worker: bad fault spec " ^ s)

(* the worker half: argv = [_; "campaign-worker"; OBJ; ROOT; LO; HI; HB;
   FAULT], dispatched from test_main before Alcotest sees argv *)
let worker_mode () =
  let obj = Sys.argv.(2) in
  let root_seed = int_of_string Sys.argv.(3) in
  let lo = int_of_string Sys.argv.(4) in
  let hi = int_of_string Sys.argv.(5) in
  let heartbeat_every = int_of_string Sys.argv.(6) in
  let fault = fault_of_string Sys.argv.(7) in
  Campaign.worker_main ~fault ~heartbeat_every ~root_seed ~lo ~hi
    (spec_of_name obj);
  exit 0

let run_campaign ?checkpoint ?resume ?should_stop
    ?(config = Campaign.default_config) ~root_seed ~trials spec =
  let obj = name_of_spec spec in
  let worker_argv ~lo ~hi ~fault =
    [|
      Sys.executable_name; "campaign-worker"; obj; string_of_int root_seed;
      string_of_int lo; string_of_int hi;
      string_of_int config.Campaign.heartbeat_every; fault_to_string fault;
    |]
  in
  Campaign.run ?checkpoint ?resume ?should_stop ~config ~worker_argv ~root_seed
    ~trials spec

(* fast supervisor settings: no backoff waits, tight heartbeats *)
let fast ?(workers = 2) ?chaos_plan ?(retry_budget = 3)
    ?(heartbeat_timeout = 30.0) () =
  {
    Campaign.default_config with
    Campaign.workers;
    heartbeat_every = 2;
    heartbeat_timeout;
    retry_budget;
    backoff_base = 0.0;
    backoff_cap = 0.0;
    chaos_plan;
  }

let body r = Torture.to_json ~timing:false r

(* --- clean supervision --- *)

let test_clean_campaign_matches_torture () =
  List.iter
    (fun mkspec ->
      let spec = mkspec () in
      let base = Torture.run ~root_seed:51 ~trials:36 spec in
      let r, c = run_campaign ~config:(fast ~workers:3 ()) ~root_seed:51
          ~trials:36 spec
      in
      Alcotest.(check string) "campaign = torture (byte-identical)" (body base)
        (body r);
      Alcotest.(check int) "one worker per range" 3 c.Campaign.workers_spawned;
      Alcotest.(check int) "no deaths" 0 c.Campaign.worker_deaths;
      Alcotest.(check int) "no rescues" 0 c.Campaign.rescues)
    [ dcas_spec; broken_spec ]

(* --- worker death at every trial index --- *)

(* kill the first spawn after [k] trials; the rescue respawn runs
   fault-free.  Sweeping k over every index of a single-worker campaign
   covers death before the first trial, between every pair of trials,
   and after the last one. *)
let kill_first_spawn_at k ~spawn ~range_len:_ =
  if spawn = 0 then Campaign.Kill_after k else Campaign.No_fault

let test_kill_at_every_index () =
  let spec = dcas_spec () in
  let trials = 10 in
  let base = body (Torture.run ~root_seed:77 ~trials spec) in
  for k = 0 to trials do
    let config = fast ~workers:1 ~chaos_plan:(kill_first_spawn_at k) () in
    let r, c = run_campaign ~config ~root_seed:77 ~trials spec in
    Alcotest.(check string)
      (Printf.sprintf "kill at trial %d: byte-identical" k)
      base (body r);
    if k < trials then begin
      Alcotest.(check bool)
        (Printf.sprintf "kill at trial %d: death recorded" k)
        true
        (c.Campaign.worker_deaths >= 1 && c.Campaign.rescues >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "kill at trial %d: retry spawned" k)
        true (c.Campaign.retries >= 1)
    end
  done

(* the same as a property over random (kill index, parallelism) — and on
   the violating object, so rescue parity covers failure capture *)
let prop_kill_random =
  QCheck.Test.make ~name:"campaign: random kill schedule is invisible"
    ~count:6
    QCheck.(triple (int_range 0 16) (int_range 1 3) bool)
    (fun (k, workers, use_broken) ->
      let spec = if use_broken then broken_spec () else dcas_spec () in
      let trials = 16 in
      let base = body (Torture.run ~root_seed:5 ~trials spec) in
      let config = fast ~workers ~chaos_plan:(kill_first_spawn_at k) () in
      let r, _ = run_campaign ~config ~root_seed:5 ~trials spec in
      body r = base)

(* --- hang detection --- *)

let test_hang_detected_and_rescued () =
  let spec = dcas_spec () in
  let trials = 12 in
  let base = body (Torture.run ~root_seed:91 ~trials spec) in
  let plan ~spawn ~range_len:_ =
    if spawn = 0 then Campaign.Hang_after 3 else Campaign.No_fault
  in
  let config =
    fast ~workers:2 ~chaos_plan:plan ~heartbeat_timeout:0.4 ()
  in
  let r, c = run_campaign ~config ~root_seed:91 ~trials spec in
  Alcotest.(check string) "hang is invisible in the report" base (body r);
  Alcotest.(check bool) "hang detected" true (c.Campaign.worker_hangs >= 1);
  Alcotest.(check bool) "hung range rescued" true (c.Campaign.rescues >= 1)

(* --- graceful degradation down to the in-process fallback --- *)

let test_degradation_and_inproc_fallback () =
  let spec = dcas_spec () in
  let trials = 15 in
  let base = body (Torture.run ~root_seed:13 ~trials spec) in
  (* every spawn dies immediately and there are no retries: the
     supervisor must halve 4 -> 2 -> 1 and then finish in-process *)
  let plan ~spawn:_ ~range_len:_ = Campaign.Kill_after 0 in
  let config = fast ~workers:4 ~chaos_plan:plan ~retry_budget:0 () in
  let r, c = run_campaign ~config ~root_seed:13 ~trials spec in
  Alcotest.(check string) "fallback report byte-identical" base (body r);
  Alcotest.(check bool) "parallelism halved" true
    (c.Campaign.degradations >= 2);
  Alcotest.(check int) "every trial fell back in-process" trials
    c.Campaign.inproc_trials;
  Alcotest.(check bool) "deaths and rescues recorded" true
    (c.Campaign.worker_deaths >= 1 && c.Campaign.rescues >= 1)

(* --- checkpointing across engines --- *)

let with_temp_journal f =
  let path = Filename.temp_file "campaign-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let string_contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* a campaign journal (trials + lifecycle events) truncated mid-stream —
   the supervisor crashed — must resume to the uninterrupted report,
   whether the resuming engine is another campaign or a plain
   single-process torture run; and vice versa for a torture journal *)
let test_campaign_checkpoint_resume () =
  let spec = dcas_spec () in
  let trials = 24 in
  let base = body (Torture.run ~root_seed:29 ~trials spec) in
  with_temp_journal (fun path ->
      let config = fast ~workers:2 ~chaos_plan:(kill_first_spawn_at 4) () in
      let r, _ =
        run_campaign ~checkpoint:path ~config ~root_seed:29 ~trials spec
      in
      Alcotest.(check string) "journaled chaos campaign byte-identical" base
        (body r);
      let lines = read_lines path in
      Alcotest.(check bool) "lifecycle events journaled" true
        (List.exists (fun l -> string_contains l {|"event"|}) lines);
      (* supervisor crash: keep the header and the first 10 stream lines *)
      write_lines path (List.filteri (fun i _ -> i < 11) lines);
      (* a plain torture run finishes the campaign's journal *)
      let cross =
        Torture.run ~root_seed:29 ~trials ~checkpoint:path ~resume:true spec
      in
      Alcotest.(check string) "torture resumes a campaign journal" base
        (body cross);
      (* the journal is now complete: a campaign resume re-runs nothing *)
      let r2, c2 =
        run_campaign ~checkpoint:path ~resume:true
          ~config:(fast ~workers:2 ()) ~root_seed:29 ~trials spec
      in
      Alcotest.(check string) "no-op campaign resume agrees" base (body r2);
      Alcotest.(check int) "nothing respawned" 0 c2.Campaign.workers_spawned)

let test_campaign_resumes_torture_journal () =
  let spec = dcas_spec () in
  let trials = 24 in
  let base = body (Torture.run ~root_seed:43 ~trials spec) in
  with_temp_journal (fun path ->
      ignore (Torture.run ~root_seed:43 ~trials ~checkpoint:path spec);
      let lines = read_lines path in
      write_lines path (List.filteri (fun i _ -> i < 9) lines);
      let r, c =
        run_campaign ~checkpoint:path ~resume:true
          ~config:(fast ~workers:2 ()) ~root_seed:43 ~trials spec
      in
      Alcotest.(check string) "campaign resumes a torture journal" base
        (body r);
      Alcotest.(check bool) "remaining range ran in workers" true
        (c.Campaign.workers_spawned >= 1))

(* a should_stop that trips mid-campaign stops the supervisor through the
   same interrupt path as Torture.run: Interrupted carries the journaled
   progress, the journal ends with the matching "interrupted" event, and
   a single-process resume finishes byte-identically.  The second worker
   hangs after 3 trials, so the campaign cannot finish on its own, and
   the stop trips once both workers' streamed trials (the first range
   whole, 3 of the second) are journaled: the interrupt lands at exactly
   23 of 40. *)
let test_should_stop_interrupts_and_torture_resumes () =
  let spec = dcas_spec () in
  let trials = 40 in
  let base = body (Torture.run ~root_seed:61 ~trials spec) in
  with_temp_journal (fun path ->
      let journaled () =
        List.length
          (List.filter
             (fun l -> String.starts_with ~prefix:{|{ "i": |} l)
             (read_lines path))
      in
      let should_stop () = journaled () >= 23 in
      let plan ~spawn ~range_len:_ =
        if spawn = 1 then Campaign.Hang_after 3 else Campaign.No_fault
      in
      (match
         run_campaign ~checkpoint:path ~should_stop
           ~config:(fast ~workers:2 ~chaos_plan:plan ())
           ~root_seed:61 ~trials spec
       with
      | _ -> Alcotest.fail "campaign completed despite should_stop"
      | exception Torture.Interrupted { completed; total } ->
          Alcotest.(check int) "total = trials" trials total;
          Alcotest.(check int) "completed = journaled trials" 23 completed;
          let lines = read_lines path in
          let last = List.nth lines (List.length lines - 1) in
          Alcotest.(check string) "journal ends with the interrupted event"
            (Printf.sprintf
               {|{ "event": "interrupted", "completed": %d, "total": %d }|}
               completed trials)
            last);
      let resumed =
        Torture.run ~root_seed:61 ~trials ~checkpoint:path ~resume:true spec
      in
      Alcotest.(check string) "torture resume after campaign interrupt" base
        (body resumed))

(* --- chaos spec parsing (the --chaos CLI surface) --- *)

let test_chaos_of_string () =
  (match Campaign.chaos_of_string "kill=0.3,hang=0.1,seed=9" with
  | Ok c ->
      Alcotest.(check (float 1e-9)) "kill" 0.3 c.Campaign.kill_prob;
      Alcotest.(check (float 1e-9)) "hang" 0.1 c.Campaign.hang_prob;
      Alcotest.(check int) "seed" 9 c.Campaign.chaos_seed
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (match Campaign.chaos_of_string "kill=1" with
  | Ok c -> Alcotest.(check (float 1e-9)) "bare kill" 1.0 c.Campaign.kill_prob
  | Error m -> Alcotest.failf "parse failed: %s" m);
  List.iter
    (fun s ->
      match Campaign.chaos_of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid chaos spec %S" s
      | Error _ -> ())
    [ "kill=1.5"; "kill=0.8,hang=0.8"; "frob=1"; "kill=x"; "hang=-0.1" ];
  match Campaign.chaos_of_string (Campaign.chaos_to_string Campaign.no_chaos)
  with
  | Ok c -> Alcotest.(check bool) "round-trip" true (c = Campaign.no_chaos)
  | Error m -> Alcotest.failf "round-trip failed: %s" m

let suites =
  [
    ( "campaign.supervisor",
      [
        Alcotest.test_case "clean campaign = torture (clean + violating)"
          `Quick test_clean_campaign_matches_torture;
        Alcotest.test_case "worker killed at every trial index" `Quick
          test_kill_at_every_index;
        QCheck_alcotest.to_alcotest prop_kill_random;
        Alcotest.test_case "hung worker detected and rescued" `Quick
          test_hang_detected_and_rescued;
        Alcotest.test_case "degradation down to in-process fallback" `Quick
          test_degradation_and_inproc_fallback;
      ] );
    ( "campaign.checkpoint",
      [
        Alcotest.test_case "supervisor crash + resume byte-identical" `Quick
          test_campaign_checkpoint_resume;
        Alcotest.test_case "campaign resumes a torture journal" `Quick
          test_campaign_resumes_torture_journal;
        Alcotest.test_case "should_stop interrupts, torture resumes" `Quick
          test_should_stop_interrupts_and_torture_resumes;
      ] );
    ( "campaign.chaos-spec",
      [ Alcotest.test_case "chaos spec parsing" `Quick test_chaos_of_string ] );
  ]
