(* Tests for the multi-process campaign supervisor (lib/campaign).

   The test binary doubles as its own worker: when spawned as
   [test_main.exe campaign-worker OBJ ROOT LO HI HB FAULT] it runs
   {!Campaign.worker_main} on the named slice instead of the Alcotest
   suites (see the dispatch at the top of test_main.ml).  That keeps the
   supervisor tests hermetic — no dependency on detect_cli being built —
   while still exercising real processes, real pipes and real waitpid.

   The contract under test is the one the paper's determinism gives us
   for free: trial [i] is a pure function of [(spec, root_seed, i)], so
   whatever the supervisor has to do — respawn what dead workers left,
   SIGKILL hung ones, finish a remainder in-process — the merged report
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

(* fast supervisor settings: tight heartbeats *)
let fast ?(workers = 2) ?chaos_plan ?(retry_budget = 3)
    ?(heartbeat_timeout = 30.0) () =
  {
    Campaign.default_config with
    Campaign.workers;
    heartbeat_every = 2;
    heartbeat_timeout;
    retry_budget;
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
      Alcotest.(check int) "no retries" 0 c.Campaign.retries)
    [ dcas_spec; broken_spec ]

(* --- worker death at every trial index --- *)

(* kill the first spawn of the range at trial 0 after [k] trials; the
   rescue respawn runs fault-free.  Sweeping k over every index of a
   single-worker campaign covers death before the first trial, between
   every pair of trials, and after the last one. *)
let kill_first_spawn_at k ~lo ~attempt ~range_len:_ =
  if lo = 0 && attempt = 1 then Campaign.Kill_after k else Campaign.No_fault

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
        true (c.Campaign.worker_deaths >= 1);
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
  let plan ~lo ~attempt ~range_len:_ =
    if lo = 0 && attempt = 1 then Campaign.Hang_after 3 else Campaign.No_fault
  in
  let config =
    fast ~workers:2 ~chaos_plan:plan ~heartbeat_timeout:0.4 ()
  in
  let r, c = run_campaign ~config ~root_seed:91 ~trials spec in
  Alcotest.(check string) "hang is invisible in the report" base (body r);
  Alcotest.(check bool) "hang detected" true (c.Campaign.worker_hangs >= 1);
  Alcotest.(check bool) "hung range respawned" true (c.Campaign.retries >= 1)

(* --- the one failure rule: retry the remainder, then finish it
   in-process --- *)

let test_retry_then_inproc () =
  let spec = dcas_spec () in
  let trials = 15 in
  let base = body (Torture.run ~root_seed:13 ~trials spec) in
  (* every spawn dies before its first trial: each of the two ranges is
     spawned, respawned once (retry budget 1), and then runs whole in
     the supervisor's process *)
  let plan ~lo:_ ~attempt:_ ~range_len:_ = Campaign.Kill_after 0 in
  let config = fast ~workers:2 ~chaos_plan:plan ~retry_budget:1 () in
  let r, c = run_campaign ~config ~root_seed:13 ~trials spec in
  Alcotest.(check string) "in-process report byte-identical" base (body r);
  Alcotest.(check int) "spawned" 4 c.Campaign.workers_spawned;
  Alcotest.(check int) "deaths" 4 c.Campaign.worker_deaths;
  Alcotest.(check int) "hangs" 0 c.Campaign.worker_hangs;
  Alcotest.(check int) "retries" 2 c.Campaign.retries;
  Alcotest.(check int) "every trial ran in-process" trials
    c.Campaign.inproc_trials

(* the supervisor reads no pipe while it runs a remainder in-process:
   the other worker, blocked on its full pipe meanwhile, is alive, and
   must not be declared hung for the supervisor's own silence.  Range 0
   dies at once and runs whole in-process (~1.2 s on a 2-vCPU box);
   range 1's worker fills its pipe within a fraction of the 0.5 s
   timeout. *)
let test_inproc_run_starves_no_worker () =
  let spec = dcas_spec () in
  let trials = 24_000 in
  let plan ~lo ~attempt:_ ~range_len:_ =
    if lo = 0 then Campaign.Kill_after 0 else Campaign.No_fault
  in
  let config =
    fast ~workers:2 ~chaos_plan:plan ~retry_budget:0 ~heartbeat_timeout:0.5 ()
  in
  let _, c = run_campaign ~config ~root_seed:3 ~trials spec in
  Alcotest.(check int) "no hang" 0 c.Campaign.worker_hangs;
  Alcotest.(check int) "spawned" 2 c.Campaign.workers_spawned;
  Alcotest.(check int) "range 0 ran in-process" (trials / 2)
    c.Campaign.inproc_trials

(* --- chaos reproducibility --- *)

(* the chaos draw is keyed on (range start, attempt), not on the spawn
   counter, so which worker the supervisor reaps first cannot change the
   fault schedule: two runs of one chaos campaign report the same
   supervision counters, not only the same report body *)
let test_chaos_reproducible () =
  let spec = dcas_spec () in
  let trials = 100 in
  let base = body (Torture.run ~root_seed:11 ~trials spec) in
  let config =
    {
      (fast ~workers:4 ~retry_budget:1 ()) with
      Campaign.chaos =
        { Campaign.kill_prob = 1.0; hang_prob = 0.0; chaos_seed = 3 };
    }
  in
  let run () =
    let r, c = run_campaign ~config ~root_seed:11 ~trials spec in
    Alcotest.(check string) "chaos is invisible in the report" base (body r);
    c
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "chaos active" true
    (a.Campaign.worker_deaths > 0 && a.Campaign.inproc_trials > 0);
  Alcotest.(check int) "same worker_deaths" a.Campaign.worker_deaths
    b.Campaign.worker_deaths;
  Alcotest.(check int) "same retries" a.Campaign.retries b.Campaign.retries;
  Alcotest.(check int) "same inproc_trials" a.Campaign.inproc_trials
    b.Campaign.inproc_trials

(* --- input validation --- *)

(* a bad supervisor setting is rejected before any worker is spawned: a
   NaN heartbeat timeout would switch hang detection off, one <= 0
   would declare every worker hung at the first poll *)
let test_bad_config_rejected () =
  let spec = dcas_spec () in
  let worker_argv ~lo:_ ~hi:_ ~fault:_ =
    Alcotest.fail "worker_argv called for a rejected config"
  in
  List.iter
    (fun (what, config) ->
      match
        Campaign.run ~config ~worker_argv ~root_seed:1 ~trials:5 spec
      with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("workers 0", fast ~workers:0 ());
      ("heartbeat_timeout nan", fast ~heartbeat_timeout:Float.nan ());
      ("heartbeat_timeout infinity", fast ~heartbeat_timeout:Float.infinity ());
      ("heartbeat_timeout 0", fast ~heartbeat_timeout:0.0 ());
      ("heartbeat_timeout -1", fast ~heartbeat_timeout:(-1.0) ());
      ("retry_budget -1", fast ~retry_budget:(-1) ());
    ]

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

(* the supervisor journals each worker's trial line as it read it: a
   campaign journal holds byte-for-byte the trial records a torture
   journal holds, in completion order between lifecycle events.  Root 21
   violates at trial 2, so one record carries a trace; the ok ones carry
   none. *)
let test_campaign_journal_records_verbatim () =
  let spec = broken_spec () in
  let trials = 24 in
  let records path =
    match read_lines path with
    | header :: rest ->
        ( header,
          List.sort compare
            (List.filter (fun l -> not (string_contains l {|"event"|})) rest) )
    | [] -> Alcotest.fail "empty journal"
  in
  with_temp_journal (fun tpath ->
      with_temp_journal (fun cpath ->
          ignore (Torture.run ~root_seed:21 ~trials ~checkpoint:tpath spec);
          ignore
            (run_campaign ~checkpoint:cpath ~config:(fast ~workers:2 ())
               ~root_seed:21 ~trials spec);
          let t_header, t_records = records tpath in
          let c_header, c_records = records cpath in
          Alcotest.(check string) "same header" t_header c_header;
          Alcotest.(check (list string)) "same trial records" t_records
            c_records;
          Alcotest.(check int) "only the violation carries a trace" 1
            (List.length
               (List.filter
                  (fun l -> not (string_contains l {|"trace": [  ]|}))
                  c_records))))

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
      let plan ~lo ~attempt ~range_len:_ =
        if lo = 20 && attempt = 1 then Campaign.Hang_after 3
        else Campaign.No_fault
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

(* random "k=v,…" specs over the known keys, stray keys and junk
   values: the parser answers Ok or Error, never raises *)
let prop_chaos_total =
  QCheck.Test.make ~name:"chaos spec: random k=v lists never raise"
    ~count:2000
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          let key = oneofl [ "kill"; "hang"; "seed"; " kill "; "frob"; ""; "=" ] in
          let value =
            oneof
              [
                map string_of_float float;
                map string_of_int int;
                string_size ~gen:printable (int_bound 6);
              ]
          in
          let part =
            oneof
              [
                map2 (fun k v -> k ^ "=" ^ v) key value;
                string_size ~gen:printable (int_bound 6);
              ]
          in
          map (String.concat ",") (list_size (int_bound 4) part)))
    (fun s ->
      match Campaign.chaos_of_string s with Ok _ | Error _ -> true)

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
        Alcotest.test_case "retry once, then in-process" `Quick
          test_retry_then_inproc;
        Alcotest.test_case "in-process run starves no worker" `Quick
          test_inproc_run_starves_no_worker;
        Alcotest.test_case "chaos campaign reproducible" `Quick
          test_chaos_reproducible;
        Alcotest.test_case "bad config rejected before spawning" `Quick
          test_bad_config_rejected;
      ] );
    ( "campaign.checkpoint",
      [
        Alcotest.test_case "supervisor crash + resume byte-identical" `Quick
          test_campaign_checkpoint_resume;
        Alcotest.test_case "campaign resumes a torture journal" `Quick
          test_campaign_resumes_torture_journal;
        Alcotest.test_case "journal records = torture's, byte for byte" `Quick
          test_campaign_journal_records_verbatim;
        Alcotest.test_case "should_stop interrupts, torture resumes" `Quick
          test_should_stop_interrupts_and_torture_resumes;
      ] );
    ( "campaign.chaos-spec",
      [
        Alcotest.test_case "chaos spec parsing" `Quick test_chaos_of_string;
        QCheck_alcotest.to_alcotest prop_chaos_total;
      ] );
  ]
