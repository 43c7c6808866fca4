(* detect-cli: command-line front end for the detectable-objects
   reproduction.

   - [list]        enumerate the paper experiments
   - [exp ID …]    run one or more experiments (all by default)
   - [torture]     randomized crash-torture a chosen object
   - [trace]       run one seeded execution and print its history
   - [modelcheck]  bounded exhaustive exploration of a tiny workload *)

open Cmdliner
open Nvm
open History
open Sched

(* ------------------------------------------------------------------ *)
(* common options *)

let obj_arg =
  let choices = List.map (fun o -> (Objects.name o, o)) Objects.all in
  let doc =
    "Object under test: " ^ String.concat ", " (List.map fst choices) ^ "."
  in
  Arg.(
    required
    & opt (some (enum choices)) None
    & info [ "o"; "object" ] ~docv:"OBJECT" ~doc)

(* [k] gets the object's constructor; Objects.mk's rejection of --procs
   becomes a one-line usage error *)
let with_mk obj ~procs k =
  match Objects.mk obj ~n:procs with
  | exception Invalid_argument m -> `Error (false, m)
  | mk -> k mk

let procs_arg =
  Arg.(value & opt int 3 & info [ "p"; "procs" ] ~docv:"N" ~doc:"Process count.")

let ops_arg =
  Arg.(
    value & opt int 3
    & info [ "k"; "ops" ] ~docv:"K" ~doc:"Operations per process.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let policy_arg =
  let choices = [ ("retry", Session.Retry); ("giveup", Session.Give_up) ] in
  Arg.(
    value
    & opt (enum choices) Session.Retry
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"What the caller does after a fail verdict: retry or giveup.")

(* ------------------------------------------------------------------ *)
(* list *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        Printf.printf "%-4s %-28s %s\n" e.id e.paper_artefact e.descr)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper experiments.")
    Term.(const run $ const ())

(* exp *)

let exp_cmd =
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let run ids =
    match ids with
    | [] ->
        Experiments.Registry.run_all ();
        `Ok ()
    | ids ->
        let rec go = function
          | [] -> `Ok ()
          | id :: rest -> (
              match Experiments.Registry.find id with
              | Some e ->
                  Experiments.Registry.run_one e;
                  go rest
              | None -> `Error (false, "unknown experiment id: " ^ id))
        in
        go ids
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run paper experiments (tables to stdout).")
    Term.(ret (const run $ ids))

(* torture / campaign: shared options and helpers *)

let fault_conv =
  let parse s =
    match Fault_model.of_string s with
    | Ok f -> Ok f
    | Error m -> Error (`Msg m)
  in
  let print ppf f = Format.pp_print_string ppf (Fault_model.to_string f) in
  Arg.conv ~docv:"FAULT" (parse, print)

(* Objects.mk (on --procs) and Torture.default_spec_of (on --crash-prob)
   raise Invalid_argument here, before any trial runs *)
let torture_spec_of ~obj ~procs ~ops ~policy ~crash_prob ~max_crashes ~fault
    ~watchdog =
  let model, persist = Objects.machine_for fault in
  Torture.default_spec_of ~label:(Objects.name obj)
    ~mk:(Objects.mk ~model ~persist obj ~n:procs)
    ~workloads_of_seed:(fun s ->
      Objects.workloads obj (Dtc_util.Prng.create s) ~procs ~ops_per_proc:ops)
    ~policy ~crash_prob ~max_crashes ~max_steps:100_000 ~fault ~watchdog ()

(* SIGINT/SIGTERM flip an atomic stop flag the engines poll between
   trials; the run then flushes its final checkpoint lines (including an
   "interrupted" event) and exits with the distinct status below, so
   shells and supervisors can tell "partial, resumable" from failure. *)
let exit_interrupted = 20

let interrupted_exit_info =
  Cmd.Exit.info exit_interrupted
    ~doc:
      "on SIGINT/SIGTERM: the campaign stopped between trials, flushed its \
       checkpoint journal (when $(b,--checkpoint) is set), and reported how \
       many trials are journaled; finish it with $(b,--resume)."

let install_stop_flag () =
  let stop = Atomic.make false in
  let handle = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  (try Sys.set_signal Sys.sigint handle with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm handle
   with Invalid_argument _ | Sys_error _ -> ());
  fun () -> Atomic.get stop

let interrupted_exit ~completed ~total =
  Printf.eprintf
    "interrupted: %d/%d trials journaled; rerun with --resume to finish\n%!"
    completed total;
  exit exit_interrupted

(* exact (round-trippable) command-line spellings for the worker argv:
   Fault_model.to_string prints drop's keep probability with %.2f, which
   would silently change the worker's fault stream, so floats travel as
   %h hex literals (float_of_string restores the exact bits) *)
let fault_exact_arg = function
  | Fault_model.Atomic -> "atomic"
  | Fault_model.Reorder -> "reorder"
  | Fault_model.Drop { keep_prob } -> Printf.sprintf "drop:%h" keep_prob
  | Fault_model.Torn { granularity } -> Printf.sprintf "torn:%d" granularity

let trials_arg =
  Arg.(value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc:"Random runs.")

let crash_prob_arg =
  Arg.(
    value & opt float 0.05
    & info [ "crash-prob" ] ~docv:"P" ~doc:"Per-step crash probability.")

let max_crashes_arg =
  Arg.(
    value & opt int 3
    & info [ "max-crashes" ] ~docv:"C" ~doc:"Crash budget per trial.")

let fault_arg =
  Arg.(
    value
    & opt fault_conv Fault_model.default
    & info [ "fault" ] ~docv:"FAULT"
        ~doc:
          "Crash fault model: $(b,atomic) (every dirty cache line \
           persists — the historical semantics), $(b,drop) or \
           $(b,drop:P) (each dirty line independently persists with \
           probability P, default 0.5), $(b,torn) or $(b,torn:G) \
           (dirty tuple values persist component-wise in chunks of G, \
           default 1 — a torn multi-word write), $(b,reorder) \
           (an adversarial prefix of a random persist order).  \
           Non-atomic models run the object on a shared-cache machine \
           with a persist instruction after every shared access.")

let watchdog_arg =
  Arg.(
    value & opt int 10_000
    & info [ "watchdog" ] ~docv:"STEPS"
        ~doc:
          "Per-operation step budget: a single operation or recovery \
           exceeding it turns the trial into a budget_exhausted verdict \
           instead of spinning to the trial step limit.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Journal one JSONL line per completed trial to $(docv) \
           (schema detectable-torture-checkpoint/v2), so an interrupted \
           campaign can be resumed with $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Load completed trials from the $(b,--checkpoint) journal and \
           run only the missing ones; the merged report is \
           byte-identical to an uninterrupted campaign's.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print the merged run report as a detectable-torture/v4 JSON \
           document instead of the text summary.")

let no_timing_arg =
  Arg.(
    value & flag
    & info [ "no-timing" ]
        ~doc:
          "Omit the timing block (throughput, allocation, supervision) \
           from the report, leaving exactly the deterministic fields — \
           byte-identical across torture and campaign, worker counts and \
           schedules, chaos and resume splits.")

let report_arg =
  Arg.(
    value & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Also write the JSON run report to $(docv) (independent of \
           $(b,--json); always includes the timing block).")

let no_shrink_arg =
  Arg.(
    value & flag
    & info [ "no-shrink" ]
        ~doc:"Skip minimising the first failing trial's schedule.")

(* The shared tail of torture and campaign: the --resume guard, the
   SIGINT/SIGTERM flag, the exits and the report outputs.  [go] runs the
   campaign and returns its report with any supervision counters. *)
let run_campaign ~checkpoint ~resume ~json ~no_timing ~report_file go =
  if resume && checkpoint = None then
    `Error (false, "--resume requires --checkpoint FILE")
  else
    match go (install_stop_flag ()) with
    | exception Torture.Interrupted { completed; total } ->
        interrupted_exit ~completed ~total
    | exception (Invalid_argument m | Sys_error m) -> `Error (false, m)
    | report, supervision ->
        let timing = not no_timing in
        if json then print_string (Torture.to_json ~timing ?supervision report)
        else
          Format.printf "%a" (Torture.pp_report ~timing ?supervision ()) report;
        (match report_file with
        | Some path ->
            let oc = open_out path in
            output_string oc (Torture.to_json ?supervision report);
            close_out oc;
            if not json then Printf.printf "report written to %s\n" path
        | None -> ());
        if report.Torture.not_linearized > 0 then
          `Error (false, "violations found")
        else if report.Torture.engine_faults > 0 then
          `Error (false, "engine faults recorded (object code raised)")
        else `Ok ()

(* torture *)

let torture_cmd =
  let run obj procs ops trials crash_prob max_crashes policy seed fault
      watchdog checkpoint resume json no_timing report_file no_shrink =
    run_campaign ~checkpoint ~resume ~json ~no_timing ~report_file
    @@ fun should_stop ->
    ( Torture.run ~root_seed:seed ~trials ~shrink:(not no_shrink)
        ?checkpoint ~resume ~should_stop
        (torture_spec_of ~obj ~procs ~ops ~policy ~crash_prob ~max_crashes
           ~fault ~watchdog),
      None )
  in
  Cmd.v
    (Cmd.info "torture"
       ~exits:(interrupted_exit_info :: Cmd.Exit.defaults)
       ~doc:
         "Randomized crash-torture: many seeded runs, random schedules and \
          crash points, every history checked for durable linearizability + \
          detectability.  A configurable fault model ($(b,--fault)) decides \
          what a crash does to dirty cache lines.  Trials run one after \
          another in this process (run them side by side with \
          $(b,campaign --workers)), journal to a resumable checkpoint \
          ($(b,--checkpoint), $(b,--resume)) and merge into a structured \
          run report ($(b,--json), $(b,--report)) with verdict counts, a \
          crash-point histogram, step and space distributions, and the \
          first failing trial's minimised schedule.")
    Term.(
      ret
        (const run $ obj_arg $ procs_arg $ ops_arg $ trials_arg
       $ crash_prob_arg $ max_crashes_arg $ policy_arg $ seed_arg
       $ fault_arg $ watchdog_arg $ checkpoint_arg
       $ resume_arg $ json_arg $ no_timing_arg $ report_arg $ no_shrink_arg))

(* campaign: multi-process supervised torture *)

let chaos_conv =
  let parse s =
    match Campaign.chaos_of_string s with
    | Ok c -> Ok c
    | Error m -> Error (`Msg m)
  in
  let print ppf c = Format.pp_print_string ppf (Campaign.chaos_to_string c) in
  Arg.conv ~docv:"CHAOS" (parse, print)

let campaign_cmd =
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"W"
          ~doc:
            "Initial worker-process parallelism: the number of trial \
             ranges run side by side, one process each.  The merged \
             report's deterministic fields are bit-identical for any value \
             — and to the equivalent in-process $(b,torture) run.")
  in
  let heartbeat_every =
    Arg.(
      value & opt int 16
      & info [ "heartbeat-every" ] ~docv:"T"
          ~doc:"Worker heartbeat period, in trials.")
  in
  let heartbeat_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "heartbeat-timeout" ] ~docv:"SECS"
          ~doc:
            "Silence (no trials, no heartbeats) after which a worker is \
             declared hung, SIGKILLed, and its remaining range reassigned.")
  in
  let retry_budget =
    Arg.(
      value & opt int 3
      & info [ "retry-budget" ] ~docv:"N"
          ~doc:
            "Respawns allowed per failed range before the supervisor \
             degrades (halves parallelism, ultimately falling back to \
             in-process execution so the campaign always terminates).")
  in
  let backoff_base =
    Arg.(
      value & opt float 0.05
      & info [ "backoff-base" ] ~docv:"SECS"
          ~doc:"Backoff before retry k is base * 2^(k-1), capped below.")
  in
  let backoff_cap =
    Arg.(
      value & opt float 2.0
      & info [ "backoff-cap" ] ~docv:"SECS" ~doc:"Backoff ceiling.")
  in
  let chaos =
    Arg.(
      value
      & opt chaos_conv Campaign.no_chaos
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection for the supervisor itself: \
             $(b,kill=P,hang=Q,seed=S) makes each spawned worker self-kill \
             (probability P) or hang (probability Q) after a seeded number \
             of trials.  The final report must stay byte-identical to an \
             undisturbed run — only the timing block's supervision \
             counters change.")
  in
  let run obj procs ops trials crash_prob max_crashes policy seed workers
      fault watchdog chaos heartbeat_every heartbeat_timeout
      retry_budget backoff_base backoff_cap checkpoint resume json no_timing
      report_file no_shrink =
    let config =
      {
        Campaign.default_config with
        workers;
        heartbeat_every;
        heartbeat_timeout;
        retry_budget;
        backoff_base;
        backoff_cap;
        chaos;
      }
    in
    let worker_argv ~lo ~hi ~fault:fault_plan =
      let base =
        [
          Sys.executable_name;
          "torture-worker";
          "-o";
          Objects.name obj;
          "-p";
          string_of_int procs;
          "-k";
          string_of_int ops;
          "--policy";
          (match policy with
          | Session.Retry -> "retry"
          | Session.Give_up -> "giveup");
          "--crash-prob";
          Printf.sprintf "%h" crash_prob;
          "--max-crashes";
          string_of_int max_crashes;
          "--fault";
          fault_exact_arg fault;
          "--watchdog";
          string_of_int watchdog;
          "-s";
          string_of_int seed;
          "--lo";
          string_of_int lo;
          "--hi";
          string_of_int hi;
          "--heartbeat-every";
          string_of_int heartbeat_every;
        ]
      in
      let chaos_args =
        match fault_plan with
        | Campaign.No_fault -> []
        | Campaign.Kill_after k -> [ "--chaos-kill-after"; string_of_int k ]
        | Campaign.Hang_after k -> [ "--chaos-hang-after"; string_of_int k ]
      in
      Array.of_list (base @ chaos_args)
    in
    run_campaign ~checkpoint ~resume ~json ~no_timing ~report_file
    @@ fun should_stop ->
    let report, counters =
      Campaign.run ?checkpoint ~resume ~shrink:(not no_shrink) ~should_stop
        ~config ~worker_argv ~root_seed:seed ~trials
        (torture_spec_of ~obj ~procs ~ops ~policy ~crash_prob ~max_crashes
           ~fault ~watchdog)
    in
    (report, Some counters)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~exits:(interrupted_exit_info :: Cmd.Exit.defaults)
       ~doc:
         "Multi-process supervised torture: fork $(b,--workers) \
          $(b,torture-worker) processes, each streaming per-trial JSONL \
          records and heartbeats over its pipe; the supervisor detects \
          worker death (waitpid) and hangs ($(b,--heartbeat-timeout)), \
          reassigns remaining ranges with capped exponential backoff and a \
          $(b,--retry-budget), halves parallelism when a range keeps \
          failing, and ultimately falls back to in-process execution — so \
          the campaign always terminates with a verdict byte-identical to \
          the equivalent $(b,torture) run.  $(b,--chaos) injects \
          deterministic worker kills/hangs to prove exactly that.")
    Term.(
      ret
        (const run $ obj_arg $ procs_arg $ ops_arg $ trials_arg
       $ crash_prob_arg $ max_crashes_arg $ policy_arg $ seed_arg $ workers
       $ fault_arg $ watchdog_arg $ chaos
       $ heartbeat_every $ heartbeat_timeout $ retry_budget $ backoff_base
       $ backoff_cap $ checkpoint_arg $ resume_arg $ json_arg $ no_timing_arg
       $ report_arg $ no_shrink_arg))

(* torture-worker: the internal campaign worker process *)

let torture_worker_cmd =
  let lo =
    Arg.(
      required
      & opt (some int) None
      & info [ "lo" ] ~docv:"I" ~doc:"First trial index (inclusive).")
  in
  let hi =
    Arg.(
      required
      & opt (some int) None
      & info [ "hi" ] ~docv:"J" ~doc:"One past the last trial index.")
  in
  let heartbeat_every =
    Arg.(
      value & opt int 16
      & info [ "heartbeat-every" ] ~docv:"T"
          ~doc:"Emit a heartbeat event every T completed trials.")
  in
  let chaos_kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-kill-after" ] ~docv:"K"
          ~doc:"Chaos injection: self-kill (exit 70) after K trials.")
  in
  let chaos_hang_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-hang-after" ] ~docv:"K"
          ~doc:"Chaos injection: stop emitting after K trials.")
  in
  let run obj procs ops crash_prob max_crashes policy seed fault watchdog lo
      hi heartbeat_every kill_after hang_after =
    match
      torture_spec_of ~obj ~procs ~ops ~policy ~crash_prob ~max_crashes ~fault
        ~watchdog
    with
    | exception Invalid_argument m -> `Error (false, m)
    | spec ->
        let fault_plan =
          match (kill_after, hang_after) with
          | Some k, _ -> Campaign.Kill_after k
          | None, Some k -> Campaign.Hang_after k
          | None, None -> Campaign.No_fault
        in
        Campaign.worker_main ~fault:fault_plan ~heartbeat_every ~root_seed:seed
          ~lo ~hi spec;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "torture-worker"
       ~doc:
         "(internal) Campaign worker process: run trials [$(b,--lo), \
          $(b,--hi)) of the campaign seeded by $(b,--seed), streaming one \
          JSONL trial record per trial plus periodic heartbeat events to \
          stdout.  Spawned by $(b,campaign); stable enough to drive by \
          hand, but its flags mirror whatever $(b,campaign) needs.")
    Term.(
      ret
        (const run $ obj_arg $ procs_arg $ ops_arg $ crash_prob_arg
       $ max_crashes_arg $ policy_arg $ seed_arg $ fault_arg
       $ watchdog_arg $ lo $ hi $ heartbeat_every $ chaos_kill_after
       $ chaos_hang_after))

(* trace *)

let trace_cmd =
  let crash_at =
    Arg.(
      value & opt (some int) None
      & info [ "crash-at" ] ~docv:"STEP"
          ~doc:"Inject a system-wide crash just before this global step.")
  in
  let run obj procs ops seed crash_at policy =
    with_mk obj ~procs @@ fun mk ->
    let machine, inst = mk () in
    let prng = Dtc_util.Prng.create seed in
    let cfg =
      {
        Driver.schedule = Schedule.random prng;
        crash_plan =
          (match crash_at with
          | None -> Crash_plan.none
          | Some k -> Crash_plan.at_steps [ k ]);
        policy;
        max_steps = 100_000;
      }
    in
    let workloads =
      Objects.workloads obj (Dtc_util.Prng.create seed) ~procs ~ops_per_proc:ops
    in
    let res = Driver.run machine inst ~workloads cfg in
    Printf.printf "object:  %s\nsteps:   %d\ncrashes: %d\n"
      inst.Obj_inst.descr res.Driver.steps res.Driver.crashes;
    Format.printf "summary: %a@.@." Hist.pp_stats (Hist.stats res.Driver.history);
    Format.printf "%a@." Event.pp_history res.Driver.history;
    (match Driver.check inst res with
    | Lin_check.Ok_linearizable w ->
        Format.printf "verdict: linearizable; witness order:@.";
        List.iter (fun op -> Format.printf "  %a@." Spec.pp_op op) w
    | Lin_check.Violation msg -> Format.printf "verdict: VIOLATION — %s@." msg);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one seeded execution and print its event history and verdict.")
    Term.(
      ret
        (const run $ obj_arg $ procs_arg $ ops_arg $ seed_arg $ crash_at
       $ policy_arg))

(* modelcheck *)

let modelcheck_cmd =
  let switches =
    Arg.(
      value & opt int 2
      & info [ "switches" ] ~docv:"D" ~doc:"Context-switch budget.")
  in
  let crashes =
    Arg.(value & opt int 1 & info [ "crashes" ] ~docv:"C" ~doc:"Crash budget.")
  in
  let no_prune =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Disable the visited-set subtree memoisation: every DFS node is \
             explored in full, even when an equivalent state was already \
             summarised.")
  in
  let exact_configs =
    Arg.(
      value & flag
      & info [ "exact-configs" ]
          ~doc:
            "Keep full snapshots in the configuration set to audit \
             fingerprint collisions (more memory).")
  in
  let reduction =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", (`None : Modelcheck.Explore.reduction));
               ("dpor", `Dpor);
               ("dpor+sym", `Dpor_sym);
               ("dpor+sym-memo", `Dpor_sym_memo);
             ])
          `None
      & info [ "reduction" ] ~docv:"RED"
          ~doc:
            "Search-space reduction: $(b,none) explores the full \
             delay-bounded family; $(b,dpor) prunes commuting \
             interleavings of independent steps with sleep sets and \
             source sets; $(b,dpor+sym) additionally prunes process \
             symmetry on objects that declare an id-symmetric layout; \
             $(b,dpor+sym-memo) additionally memoises subtrees on \
             symmetry-canonical keys and counts configurations with \
             exact orbit weights (id-symmetric objects under uniform \
             workloads; degrades to dpor+sym otherwise).  Reduced \
             counters are certified lower bounds over what was actually \
             visited; see docs/LOWERBOUND.md.")
  in
  let node_budget =
    Arg.(
      value & opt int 0
      & info [ "node-budget" ] ~docv:"B"
          ~doc:
            "Stop after physically visiting B DFS nodes (0 = unlimited). \
             A capped run reports partial counters — valid lower bounds \
             over what was visited.")
  in
  let run obj procs ops switches crashes no_prune exact_configs reduction
      node_budget policy seed =
    with_mk obj ~procs @@ fun mk ->
    let workloads =
      Objects.workloads obj (Dtc_util.Prng.create seed) ~procs ~ops_per_proc:ops
    in
    let cfg =
      {
        Modelcheck.Explore.default_config with
        switch_budget = switches;
        crash_budget = crashes;
        policy;
        prune = not no_prune;
        exact_configs;
        reduction;
        node_budget;
      }
    in
    let out =
      Modelcheck.Explore.explore ~mk ~workloads cfg
    in
    let m = out.Modelcheck.Explore.metrics in
    Printf.printf
      "executions: %d\nnodes: %d\ndistinct shared configs: %d\nviolations: %d\n"
      out.Modelcheck.Explore.executions out.Modelcheck.Explore.nodes
      out.Modelcheck.Explore.distinct_shared_configs
      out.Modelcheck.Explore.total_violations;
    let hit_rate =
      let total = m.Modelcheck.Explore.dedup_hits + out.Modelcheck.Explore.nodes in
      if total = 0 then 0.0
      else
        float_of_int m.Modelcheck.Explore.dedup_hits /. float_of_int total
    in
    Printf.printf
      "dedup: %d hits (%.1f%%), %d nodes saved, %d states tracked%s\n"
      m.Modelcheck.Explore.dedup_hits (100.0 *. hit_rate)
      m.Modelcheck.Explore.nodes_saved m.Modelcheck.Explore.peak_visited
      (if exact_configs then
         Printf.sprintf ", %d fingerprint collisions"
           m.Modelcheck.Explore.fingerprint_collisions
       else "");
    Printf.printf "throughput: %.0f nodes/sec over %.2fs\n"
      m.Modelcheck.Explore.nodes_per_sec m.Modelcheck.Explore.elapsed_s;
    Printf.printf
      "allocation: %.0f bytes/node (%.0f minor words, %.0f promoted, %d \
       minor GCs)\n"
      m.Modelcheck.Explore.bytes_per_node m.Modelcheck.Explore.minor_words
      m.Modelcheck.Explore.promoted_words
      m.Modelcheck.Explore.minor_collections;
    if m.Modelcheck.Explore.reduction <> "none" then
      Printf.printf
        "reduction: %s, %d sleep-set skips, %d symmetry skips, %d source-set \
         skips%s%s\n"
        m.Modelcheck.Explore.reduction m.Modelcheck.Explore.sleep_skips
        m.Modelcheck.Explore.sym_skips m.Modelcheck.Explore.source_skips
        (if m.Modelcheck.Explore.canonical_orbits > 0 then
           Printf.sprintf " (%d canonical orbits)"
             m.Modelcheck.Explore.canonical_orbits
         else "")
        (if out.Modelcheck.Explore.capped then
           " (node budget reached: counters are partial lower bounds)"
         else "")
    else if out.Modelcheck.Explore.capped then
      print_endline
        "node budget reached: counters are partial lower bounds";
    Printf.printf "undo: %d cells rewound, constant-node share %.1f%%\n"
      m.Modelcheck.Explore.rewound_cells
      (100.0 *. m.Modelcheck.Explore.intern_hit_rate);
    Printf.printf
      "checker: %d leaf checks (%.0f checks/sec, %.3fs), %.1f%% event reuse \
       (%d of %d events pushed)\n"
      m.Modelcheck.Explore.leaf_checks
      m.Modelcheck.Explore.lin_checks_per_sec m.Modelcheck.Explore.lin_elapsed_s
      (100.0 *. m.Modelcheck.Explore.lin_reuse_rate)
      m.Modelcheck.Explore.lin_events_pushed
      m.Modelcheck.Explore.lin_events_total;
    (match m.Modelcheck.Explore.frontier_hist with
    | [] -> ()
    | hist ->
        Printf.printf "checker frontier size (log2 buckets): %s\n"
          (String.concat " "
             (List.map (fun (b, n) -> Printf.sprintf "%d:%d" b n) hist)));
    (match m.Modelcheck.Explore.depth_hist with
    | [] -> ()
    | hist ->
        let deepest, _ = List.hd (List.rev hist) in
        let busiest_d, busiest_n =
          List.fold_left
            (fun (bd, bn) (d, n) -> if n > bn then (d, n) else (bd, bn))
            (0, 0) hist
        in
        Printf.printf
          "decision depth: max %d decisions, busiest depth %d (%d nodes)\n"
          deepest busiest_d busiest_n);
    List.iter
      (fun (v : Modelcheck.Explore.violation) ->
        Printf.printf "\nsample violation: %s\nschedule: %s\n" v.msg
          (String.concat " "
             (List.map
                (Format.asprintf "%a" Modelcheck.Explore.pp_decision)
                v.decisions));
        Format.printf "%a@." Event.pp_history v.history;
        (* shrink to a minimal reproduction *)
        match
          Modelcheck.Shrink.minimise ~mk ~workloads ~policy v.decisions
        with
        | Some r ->
            Printf.printf
              "minimised to %d decisions (%d attempts): %s  [prefix, then free run]\n"
              (List.length r.Modelcheck.Shrink.decisions)
              r.Modelcheck.Shrink.attempts
              (String.concat " "
                 (List.map
                    (Format.asprintf "%a" Modelcheck.Explore.pp_decision)
                    r.Modelcheck.Shrink.decisions))
        | None ->
            print_endline
              "(the violation did not reproduce under prefix-then-free-run \
               replay; schedule shown above is exact)")
      out.Modelcheck.Explore.violations;
    if out.Modelcheck.Explore.total_violations = 0 then `Ok ()
    else `Error (false, "violations found")
  in
  Cmd.v
    (Cmd.info "modelcheck"
       ~doc:
         "Delay-bounded exhaustive exploration of a tiny workload, all crash \
          points included.")
    Term.(
      ret
        (const run $ obj_arg $ procs_arg $ ops_arg $ switches $ crashes
       $ no_prune $ exact_configs $ reduction $ node_budget $ policy_arg
       $ seed_arg))

(* witness *)

let witness_cmd =
  let run () =
    List.iter
      (fun (e : Perturb.Witnesses.entry) ->
        match Perturb.Perturbing.verify_witness e.spec e.witness with
        | Ok () ->
            Format.printf "%-16s doubly-perturbing: %a@." e.obj_name
              Perturb.Perturbing.pp_witness e.witness
        | Error m -> Format.printf "%-16s REJECTED: %s@." e.obj_name m)
      Perturb.Witnesses.all;
    let alphabet = [ Spec.read_op; Spec.write_max_op 1; Spec.write_max_op 2 ] in
    Format.printf "%-16s %s@." "max_register"
      (if
         Perturb.Witnesses.max_register_has_no_witness ~alphabet ~max_h1:2
           ~max_ext:2
       then "no witness within bound: NOT doubly-perturbing (Lemma 4)"
       else "WITNESS FOUND (unexpected)")
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:
         "Verify the paper's doubly-perturbing witnesses (Lemmas 3, 5-8) and           the max register's non-witness (Lemma 4).")
    Term.(const run $ const ())

(* attack *)

let attack_cmd =
  let switches =
    Arg.(
      value & opt int 2
      & info [ "switches" ] ~docv:"D" ~doc:"Context-switch budget.")
  in
  let run obj procs switches =
    with_mk obj ~procs @@ fun mk ->
    let reports =
      Perturb.Adversary.attack ~mk
        ~workloads:(Objects.attack obj).Perturb.Witnesses.attack
        ~switch_budget:switches ()
    in
    List.iter
      (fun (r : Perturb.Adversary.report) ->
        Printf.printf "policy %-6s: %d violations / %d executions
"
          (match r.policy with Session.Retry -> "retry" | Session.Give_up -> "giveup")
          r.violations r.executions;
        match r.sample with
        | Some v ->
            Printf.printf "  sample: %s
" v.Modelcheck.Explore.msg;
            Format.printf "%a@." Event.pp_history v.Modelcheck.Explore.history
        | None -> ())
      reports;
    if Perturb.Adversary.survives reports then begin
      print_endline "verdict: survives the auxiliary-state adversary";
      `Ok ()
    end
    else begin
      print_endline "verdict: VIOLATED (Theorem 2 in action)";
      `Error (false, "adversary found violations")
    end
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:
         "Launch the Theorem 2 adversary (the object's doubly-perturbing           witness as a concurrent crash attack).")
    Term.(ret (const run $ obj_arg $ procs_arg $ switches))

let () =
  let doc =
    "Detectable recoverable objects on a simulated NVM machine — \
     reproduction of Ben-Baruch, Hendler and Rusanovsky (PODC 2020)."
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "detect-cli" ~version:"1.0.0" ~doc)
          [
            list_cmd;
            exp_cmd;
            torture_cmd;
            campaign_cmd;
            torture_worker_cmd;
            trace_cmd;
            modelcheck_cmd;
            witness_cmd;
            attack_cmd;
          ]))
