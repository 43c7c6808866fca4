(* One child process of the benchmark: set-up, then one untraced rep or
   the whole traced pass, with every output checked.

   An untraced rep times one whole engine call ([Torture.run],
   [Campaign.run], [Explore.explore]).  The traced pass alternates an
   untraced rep with a traced one and records spans around the calls
   into each layer's public functions, from this file only:

   - torture: each trial index runs [Torture.run_trial] as one span and
     is then re-enacted through [mk ()], [Driver.run] and
     [Driver.check], each a span, from the same [Prng.stream root
     ~index] the trial used.  The re-enactment must reproduce the
     trial's steps, crashes and verdict;
   - campaign: one span around [Campaign.run], plus the spawn, entry
     and exit times each worker process reports;
   - explorer: one span around [Explore.explore] and one around every
     [mk ()] it makes, plus the outcome's counters. *)

open Sched
module E = Modelcheck.Explore
module A = Dtc_util.Alloc_stats

(* ------------------------------------------------------------------ *)
(* failures *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few, newest first *)
}

let tally () = { attempted = 0; failed = 0; errors = [] }

let note t n msg =
  t.failed <- t.failed + n;
  if List.length t.errors < 10 then t.errors <- msg :: t.errors

let fail t fmt = Printf.ksprintf (note t 1) fmt

(* ------------------------------------------------------------------ *)
(* goldens: bench/perf/golden.json, compiled in *)

let goldens = lazy (Tiny_json.parse Golden_data.json)

let find_golden ~seed key =
  let open Tiny_json in
  match member key (member (string_of_int seed) (member "seeds" (Lazy.force goldens))) with
  | g -> Some g
  | exception Error _ -> None

let digest r = Digest.to_hex (Digest.string (Torture.to_json ~timing:false r))

(* every trial linearized and complete, no engine fault; the report
   digest equals the golden one when the seed has one *)
let check_report t ~golden (r : Torture.report) =
  t.attempted <- t.attempted + r.trials;
  let bad = r.not_linearized + r.incomplete + r.budget_exhausted + r.engine_faults in
  if bad > 0 then
    note t bad
      (Printf.sprintf "%d of %d trials not linearized, incomplete or faulted" bad
         r.trials);
  match golden with
  | Some g ->
      let want = Tiny_json.(get_str (member "digest" g)) in
      let got = digest r in
      if got <> want then fail t "report digest %s, golden %s" got want
  | None -> ()

(* no violation, not capped, the certification bound met; exact
   counters when the seed has a golden *)
let check_outcome t ~golden (c : Cases.explore_case) (o : E.outcome) =
  t.attempted <- t.attempted + 1;
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if o.capped then err "search capped";
  if o.total_violations > 0 then err "%d violations" o.total_violations;
  if o.distinct_shared_configs < c.min_configs then
    err "%d configs, bound %d" o.distinct_shared_configs c.min_configs;
  (match golden with
  | Some g ->
      List.iter
        (fun (k, got) ->
          let want = Tiny_json.(get_int (member k g)) in
          if got <> want then err "%s %d, golden %d" k got want)
        [
          ("nodes", o.nodes);
          ("executions", o.executions);
          ("violations", o.total_violations);
          ("configs", o.distinct_shared_configs);
        ]
  | None -> ());
  if !errs <> [] then fail t "%s" (String.concat "; " (List.rev !errs))

(* ------------------------------------------------------------------ *)
(* memory *)

(* VmHWM of this process, in MB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* ------------------------------------------------------------------ *)
(* campaign workers *)

(* The worker half, self-exec'd by the campaign workload's
   [worker_argv]: run the slice, then report entry and exit times and
   VmHWM in [side] before exiting (and so before the supervisor sees
   EOF). *)
let campaign_worker ~name ~seed ~lo ~hi ~heartbeat_every ~side =
  let entry = Unix.gettimeofday () in
  Campaign.worker_main ~heartbeat_every ~root_seed:seed ~lo ~hi
    (Cases.campaign_spec name);
  let oc = open_out side in
  output_string oc
    (Report.to_string
       (Tiny_json.Obj
          [
            ("entry", Num entry);
            ("exit", Num (Unix.gettimeofday ()));
            ("peak_rss_mb", Num (peak_rss_mb ()));
          ]));
  close_out oc

type workers = {
  spawned : int;
  deaths : int;
  startup_s : float;  (** max over workers: spawn stamp to entry *)
  busy_s : float;  (** max over workers: entry to exit *)
  rss_mb : float;  (** max over workers *)
  journal_bytes : int;
}

let worker_peak_rss = ref 0.0

(* ------------------------------------------------------------------ *)
(* untraced reps: (wall seconds, units completed) *)

let torture_rep t ~golden ~seed spec ~trials =
  let t0 = Spans.now () in
  let r = Torture.run ~root_seed:seed ~trials spec in
  let wall = Spans.now () -. t0 in
  check_report t ~golden r;
  (wall, trials)

let campaign_rep t ~golden ~name ~seed ~tmp spec ~trials =
  let journal = Filename.concat tmp "journal.jsonl" in
  let config = { Campaign.default_config with workers = 2 } in
  let spawns = ref [] in
  let worker_argv ~lo ~hi ~fault =
    if fault <> Campaign.No_fault then invalid_arg "campaign chaos is off";
    let side =
      Filename.concat tmp (Printf.sprintf "worker-%d.json" (List.length !spawns))
    in
    spawns := (side, Unix.gettimeofday ()) :: !spawns;
    [|
      Sys.executable_name; "--campaign-worker"; name; string_of_int seed;
      string_of_int lo; string_of_int hi;
      string_of_int config.heartbeat_every; side;
    |]
  in
  let t0 = Spans.now () in
  let r, c =
    Campaign.run ~checkpoint:journal ~config ~worker_argv ~root_seed:seed ~trials
      spec
  in
  let wall = Spans.now () -. t0 in
  check_report t ~golden r;
  let deaths = c.worker_deaths + c.worker_hangs in
  if deaths > 0 then note t deaths (Printf.sprintf "%d worker deaths" deaths);
  let reports =
    List.filter_map
      (fun (side, spawned) ->
        match Tiny_json.of_file side with
        | j ->
            Sys.remove side;
            let f k = Report.field_num k j in
            Some (f "entry" -. spawned, f "exit" -. f "entry", f "peak_rss_mb")
        | exception (Sys_error _ | Tiny_json.Error _) -> None)
      !spawns
  in
  if List.length reports <> c.workers_spawned then
    fail t "%d of %d workers reported" (List.length reports) c.workers_spawned;
  let journal_bytes = (Unix.stat journal).Unix.st_size in
  Sys.remove journal;
  let max_of f = List.fold_left (fun a w -> Float.max a (f w)) 0.0 reports in
  let w =
    {
      spawned = c.workers_spawned;
      deaths;
      startup_s = max_of (fun (s, _, _) -> s);
      busy_s = max_of (fun (_, b, _) -> b);
      rss_mb = max_of (fun (_, _, m) -> m);
      journal_bytes;
    }
  in
  worker_peak_rss := Float.max !worker_peak_rss w.rss_mb;
  (wall, trials, w)

let explore_rep t ~golden ~mk (c : Cases.explore_case) =
  let t0 = Spans.now () in
  let o = E.explore ~mk ~workloads:c.workloads c.cfg in
  let wall = Spans.now () -. t0 in
  check_outcome t ~golden c o;
  (wall, o.executions, o)

let untraced_rep t ~golden ~seed ~tmp (case : Cases.t) =
  match case.kind with
  | Torture { spec; trials } -> torture_rep t ~golden ~seed spec ~trials
  | Campaign { spec; trials } ->
      let wall, units, _ = campaign_rep t ~golden ~name:case.name ~seed ~tmp spec ~trials in
      (wall, units)
  | Explore c ->
      let wall, units, _ = explore_rep t ~golden ~mk:c.mk c in
      (wall, units)

(* ------------------------------------------------------------------ *)
(* traced reps: sums into [acc], keyed by metric name *)

let add acc k v = Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k))
let addi acc k v = add acc k (float_of_int v)

(* a span that also meters its allocation into [acc.(bytes_key)] *)
let metered sp acc name ~bytes_key ~parent ~unit_id f =
  let a0 = A.snap () in
  let s = Spans.start sp name ~parent ~unit_id in
  let r = f () in
  Spans.stop sp s;
  let a1 = A.snap () in
  add acc bytes_key (A.allocated_bytes (A.delta ~before:a0 ~after:a1));
  r

(* Trial [index] again through the public calls [Torture.run_trial]
   composes, drawing the workload seed, schedule and crash plan from
   the trial's stream in the same order. *)
let reenact t sp acc (spec : Torture.spec) ~scratch ~parent ~seed ~index
    (tr : Torture.trial) =
  let prng = Dtc_util.Prng.stream seed ~index in
  let wseed =
    Int64.to_int (Int64.shift_right_logical (Dtc_util.Prng.next_int64 prng) 2)
  in
  let workloads = spec.workloads_of_seed wseed in
  let span name ~bytes_key f = metered sp acc name ~bytes_key ~parent ~unit_id:index f in
  let machine, inst = span Mk ~bytes_key:"mk_bytes" spec.mk in
  let schedule = Schedule.random (Dtc_util.Prng.split prng) in
  let crash_plan =
    Crash_plan.faulted ~max_crashes:spec.max_crashes ~fault:spec.fault
      ~prob:spec.crash_prob (Dtc_util.Prng.split prng)
  in
  let cfg =
    { Driver.schedule; crash_plan; policy = spec.policy; max_steps = spec.max_steps }
  in
  let res =
    span Driver_run ~bytes_key:"driver_bytes" (fun () ->
        Driver.run ~watchdog:spec.watchdog ~scratch machine inst ~workloads cfg)
  in
  let verdict =
    span Check ~bytes_key:"check_bytes" (fun () ->
        Driver.check ~lin_engine:spec.lin_engine inst res)
  in
  addi acc "steps" res.steps;
  addi acc "crashes" res.crashes;
  addi acc "events" (List.length res.history);
  let v =
    match verdict with
    | History.Lin_check.Violation m -> Torture.V_violation m
    | Ok_linearizable _ ->
        if res.budget_exhausted then V_budget
        else if res.incomplete then V_incomplete
        else V_ok
  in
  if res.steps <> tr.t_steps || res.crashes <> tr.t_crashes || v <> tr.t_verdict
  then fail t "trial %d: re-enactment diverged from run_trial" index

let traced_torture_rep t sp acc ~golden ~seed ~rep (spec : Torture.spec) ~trials =
  let root = Spans.start sp Rep ~parent:(-1) ~unit_id:rep in
  let scratch = Session.make_scratch () in
  let records =
    Array.init trials (fun index ->
        let s = Spans.start sp Run_trial ~parent:root ~unit_id:index in
        let tr = Torture.run_trial spec ~scratch ~root:seed ~index in
        Spans.stop sp s;
        (try reenact t sp acc spec ~scratch ~parent:root ~seed ~index tr
         with e -> fail t "trial %d: re-enactment raised %s" index (Printexc.to_string e));
        tr)
  in
  let m = Spans.start sp Merge ~parent:root ~unit_id:rep in
  let r = Torture.merge spec ~root_seed:seed ~trials ~shrink:true records in
  Spans.stop sp m;
  Spans.stop sp root;
  check_report t ~golden r;
  Spans.duration sp root

let traced_campaign_rep t sp acc ~golden ~name ~seed ~tmp ~rep spec ~trials =
  let root = Spans.start sp Rep ~parent:(-1) ~unit_id:rep in
  let s = Spans.start sp Campaign_run ~parent:root ~unit_id:rep in
  let _, _, w = campaign_rep t ~golden ~name ~seed ~tmp spec ~trials in
  Spans.stop sp s;
  Spans.stop sp root;
  addi acc "campaign.workers_spawned" w.spawned;
  addi acc "campaign.worker_deaths" w.deaths;
  add acc "campaign.worker_startup_s" w.startup_s;
  add acc "campaign.worker_busy_s" w.busy_s;
  add acc "campaign.supervisor_overhead_s" (Spans.duration sp s -. w.busy_s);
  addi acc "campaign.journal_bytes" w.journal_bytes;
  Spans.duration sp root

let traced_explore_rep t sp acc ~golden ~rep (c : Cases.explore_case) =
  let root = Spans.start sp Rep ~parent:(-1) ~unit_id:rep in
  let e = Spans.start sp Explore ~parent:root ~unit_id:rep in
  let mk () =
    let s = Spans.start sp Mk ~parent:e ~unit_id:rep in
    let r = c.mk () in
    Spans.stop sp s;
    r
  in
  let _, _, o = explore_rep t ~golden ~mk c in
  Spans.stop sp e;
  Spans.stop sp root;
  let m = o.metrics in
  List.iter
    (fun (k, v) -> addi acc k v)
    [
      ("modelcheck.nodes", o.nodes);
      ("modelcheck.executions", o.executions);
      ("modelcheck.dedup_hits", m.dedup_hits);
      ("modelcheck.sleep_skips", m.sleep_skips);
      ("modelcheck.sym_skips", m.sym_skips);
      ("modelcheck.source_skips", m.source_skips);
      ("modelcheck.canonical_orbits", m.canonical_orbits);
      ("modelcheck.configs", o.distinct_shared_configs);
      ("nvm.rewound_cells", m.rewound_cells);
      ("history.leaf_checks", m.leaf_checks);
    ];
  add acc "modelcheck.bytes_per_node" m.bytes_per_node;
  add acc "nvm.intern_hit_rate" m.intern_hit_rate;
  add acc "history.lin_s" m.lin_elapsed_s;
  add acc "history.lin_reuse_rate" m.lin_reuse_rate;
  Spans.duration sp root

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Per-rep layer metrics from the traced reps' sums and spans. *)
let layers (kind : Cases.kind) sp acc ~reps ~overhead_pct =
  let per_rep k = Option.value ~default:0.0 (Hashtbl.find_opt acc k) /. float_of_int reps in
  let span_s name = Spans.total sp name /. float_of_int reps in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let common =
    [ ("trace.coverage", Spans.coverage sp); ("trace.overhead_pct", overhead_pct) ]
  in
  match kind with
  | Torture _ ->
      let trial_s = span_s Run_trial and trials = per_rep "trials" in
      let mk_s = span_s Mk and drv_s = span_s Driver_run and chk_s = span_s Check in
      let self_s = trial_s -. mk_s -. drv_s -. chk_s in
      let durations = Array.of_list (Spans.durations sp Run_trial) in
      Array.sort compare durations;
      common
      @ [
          ("core.mk_s", mk_s);
          ("core.mk_calls", trials);
          ("core.mk_bytes_per_trial", ratio (per_rep "mk_bytes") trials);
          ("core.share", ratio mk_s trial_s);
          ("sched.driver_run_s", drv_s);
          ("sched.steps", per_rep "steps");
          ("sched.crashes", per_rep "crashes");
          ("sched.ns_per_step", 1e9 *. ratio drv_s (per_rep "steps"));
          ("sched.driver_bytes_per_trial", ratio (per_rep "driver_bytes") trials);
          ("sched.share", ratio drv_s trial_s);
          ("history.check_s", chk_s);
          ("history.events", per_rep "events");
          ("history.ns_per_event", 1e9 *. ratio chk_s (per_rep "events"));
          ("history.check_bytes_per_trial", ratio (per_rep "check_bytes") trials);
          ("history.share", ratio chk_s trial_s);
          ("torture.run_trial_s", trial_s);
          ("torture.self_s", self_s);
          ("torture.self_share", ratio self_s trial_s);
          ("torture.merge_s", span_s Merge);
          ("torture.trial_p50_us", 1e6 *. percentile durations 0.5);
          ("torture.trial_p999_us", 1e6 *. percentile durations 0.999);
          ("torture.trials_timed", float_of_int (Array.length durations));
        ]
  | Campaign _ ->
      let run_s = span_s Campaign_run in
      common
      @ List.map
          (fun k -> (k, per_rep k))
          [
            "campaign.workers_spawned";
            "campaign.worker_deaths";
            "campaign.worker_startup_s";
            "campaign.worker_busy_s";
            "campaign.supervisor_overhead_s";
            "campaign.journal_bytes";
          ]
      @ [ ("campaign.share", ratio (per_rep "campaign.supervisor_overhead_s") run_s) ]
  | Explore _ ->
      let explore_s = span_s Explore and mk_s = span_s Mk in
      let lin_s = per_rep "history.lin_s" in
      let non_lin_s = explore_s -. lin_s in
      common
      @ List.map
          (fun k -> (k, per_rep k))
          [
            "modelcheck.nodes";
            "modelcheck.executions";
            "modelcheck.dedup_hits";
            "modelcheck.sleep_skips";
            "modelcheck.sym_skips";
            "modelcheck.source_skips";
            "modelcheck.canonical_orbits";
            "modelcheck.configs";
            "modelcheck.bytes_per_node";
            "nvm.rewound_cells";
            "nvm.intern_hit_rate";
            "history.leaf_checks";
            "history.lin_s";
            "history.lin_reuse_rate";
          ]
      @ [
          ("core.mk_s", mk_s);
          ("core.mk_calls", float_of_int (List.length (Spans.durations sp Mk)) /. float_of_int reps);
          ("core.share", ratio mk_s explore_s);
          ("modelcheck.nodes_per_s", ratio (per_rep "modelcheck.nodes") explore_s);
          ("modelcheck.non_lin_s", non_lin_s);
          ("modelcheck.share", ratio non_lin_s explore_s);
          ("history.share", ratio lin_s explore_s);
        ]

(* ------------------------------------------------------------------ *)
(* the child process *)

(* Start reps while the next one (estimated by the last) still fits in
   [seconds]; always at least [min_reps]. *)
let repeat ~seconds ~min_reps f =
  let start = Spans.now () in
  let rec go i last =
    if i >= min_reps && Spans.now () -. start +. last > seconds then ()
    else begin
      let t0 = Spans.now () in
      f i;
      go (i + 1) (Spans.now () -. t0)
    end
  in
  go 0 0.0

let traced_rep t sp acc ~golden ~seed ~tmp ~rep (case : Cases.t) =
  match case.kind with
  | Torture { spec; trials } ->
      addi acc "trials" trials;
      traced_torture_rep t sp acc ~golden ~seed ~rep spec ~trials
  | Campaign { spec; trials } ->
      traced_campaign_rep t sp acc ~golden ~name:case.name ~seed ~tmp ~rep spec ~trials
  | Explore c -> traced_explore_rep t sp acc ~golden ~rep c

(* Set up (input generation plus one warm-up call at 1/50 size), stamp
   [ready_at], then run the pass: untraced rep [rep], or untraced and
   traced reps in pairs for [seconds].  Returns the result document. *)
let run ~name ~seed ~rep ~seconds ~trace ~smoke ~tmp ~trace_file =
  let scale = if smoke then `Smoke else `Full in
  (* Rep 0 runs [seed] itself, which the goldens cover; rep r > 0 runs
     the seed's r-th derived stream seed. *)
  let rep_args rep =
    let seed = if rep = 0 then seed else Dtc_util.Prng.stream_seed seed ~index:rep in
    let case = Cases.make name ~seed ~scale in
    let golden = if smoke then None else find_golden ~seed case.golden_key in
    (seed, case, golden)
  in
  ignore (untraced_rep (tally ()) ~golden:None ~seed ~tmp
            (Cases.make name ~seed ~scale:`Warmup));
  let ready_at = Unix.gettimeofday () in
  let t = tally () in
  let fields =
    if not trace then begin
      let seed, case, golden = rep_args rep in
      let wall, units = untraced_rep t ~golden ~seed ~tmp case in
      [
        ("wall", Tiny_json.Num wall);
        ("units", Int units);
        ("peak_rss_mb", Num (Float.max (peak_rss_mb ()) !worker_peak_rss));
      ]
    end
    else begin
      let sp = Spans.create () and acc = Hashtbl.create 64 in
      let plain = ref [] and traced = ref [] in
      repeat ~seconds ~min_reps:1 (fun rep ->
          let seed, case, golden = rep_args rep in
          Gc.compact ();
          plain := fst (untraced_rep t ~golden ~seed ~tmp case) :: !plain;
          Gc.compact ();
          traced := traced_rep t sp acc ~golden ~seed ~tmp ~rep case :: !traced);
      let overhead_pct =
        100.0 *. ((Report.median !traced /. Report.median !plain) -. 1.0)
      in
      Spans.write sp trace_file;
      let reps = List.length !traced in
      [
        ( "layers",
          Tiny_json.Obj
            (List.map (fun (k, v) -> (k, Tiny_json.Num v))
               (layers (Cases.make name ~seed ~scale).kind sp acc ~reps ~overhead_pct)) );
      ]
    end
  in
  Tiny_json.Obj
    ([
       ("ready_at", Tiny_json.Num ready_at);
       ("attempted", Int t.attempted);
       ("failed", Int t.failed);
       ("errors", List (List.rev_map (fun e -> Tiny_json.Str e) t.errors));
     ]
    @ fields)
