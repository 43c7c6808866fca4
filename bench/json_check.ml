(* Schema validator for the bench/CLI JSON artefacts, run from the
   tier-1 test alias (and from @bench-check).  Parses the file with the
   dependency-free Tiny_json parser and dispatches on the "schema"
   marker:

   - "detectable-bench/checker-v1"  — `bench/main.exe --json` (model
     checker throughput trajectory);
   - "detectable-torture/v1"        — one torture run report from the
     pre-fault-model engine (still validated so archived reports keep
     checking);
   - "detectable-torture/v2"        — one torture run report: v1 plus
     the fault-model and watchdog config, the budget_exhausted /
     engine_faults verdict counters and the first_engine_fault record;
   - "detectable-torture/v3"        — one torture run report from the
     pre-supervisor engine: v2 plus the per-campaign allocation profile
     ("timing.alloc": minor/promoted words, minor collections,
     bytes_per_trial);
   - "detectable-torture/v4"        — one torture run report, as written
     by `detect_cli torture/campaign --json/--report`: v3 plus the
     "timing.supervision" block (worker spawn/death/hang, rescue,
     retry, degradation and in-process-fallback counters, and the
     chaos-injection parameters) — all-zero for a plain single-process
     torture run, and checkable with --chaos-active (see below) for a
     run that must demonstrably have exercised the supervisor;
   - "detectable-bench/torture-v1"  — a torture bench baseline
     (`bench/main.exe --baseline`), i.e. header + one embedded torture
     report per campaign (any report version, detected per report);
   - "detectable-bench/torture-v2"  — v1 plus, per campaign, the "perf"
     allocation block and the ISSUE 8 gates ("min_trials_per_sec"
     throughput floor, "max_bytes_per_trial" allocation ceiling) — the
     committed BENCH_torture.json;
   - "detectable-bench/fault-v1"    — the fault-model matrix baseline
     (`bench/main.exe --baseline`, the committed BENCH_fault.json):
     one cell per (object, fault model) with the five verdict counters
     and throughput;
   - "detectable-modelcheck/v4"     — the explorer baseline
     (`bench/main.exe --baseline`, the committed BENCH_modelcheck.json):
     per case the exact counters, a "perf" record (throughput and the
     "alloc" block) and the "min_nodes_per_sec" floor and
     "max_bytes_per_node" ceiling; plus a "reduction_cases" array: per
     config one run under every reduction mode (none / dpor / dpor+sym /
     dpor+sym-memo) with exact node and violation counters and the
     "min_node_reduction" gate;
   - "detectable-lincheck/v1"       — a linearizability-checker engine
     baseline (`bench/main.exe --baseline`, the committed
     BENCH_lincheck.json): per case the engine-independent counters plus
     one record per checker engine and the measured incremental/batch
     speedup;
   - "detectable-bench/lowerbound-v1" — the Theorem 1 lower-bound
     baseline (`bench/main.exe --lowerbound`): per process count N one
     reduced and one unreduced exploration under a shared node budget,
     with the distinct-configuration counts checked against the 2^(N-1)
     bound (this validator re-checks the arithmetic, not just the keys);
   - "detectable-bench/lowerbound-v2" — v1 plus per-case "workload" and
     "recheck" markers and per-run symmetry counters
     (sym_skips / source_skips / canonical_orbits); cases may now run
     any reduction-mode pair, and only the certifying modes (dpor,
     dpor+sym-memo) are held to the bound — dpor+sym rows are the
     committed evidence that plain symmetry reduction under-counts, so
     at least one of them must miss — the committed
     BENCH_lowerbound.json.

   With --chaos-active (valid only for detectable-torture/v4 files) the
   validator additionally requires the supervision counters to show a
   non-trivial supervision history — rescues, retries and degradations
   all strictly positive — which is how the bench chaos gate proves the
   byte-identity comparison actually covered the failure paths rather
   than a campaign where no worker ever died.

   Keeping every producer behind this one validator is what lets future
   PRs treat the JSON artefacts as a stable machine-readable surface. *)

open Tiny_json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let require_keys what j keys =
  List.iter
    (fun k -> if not (mem k j) then fail "json_check: %s missing %S" what k)
    keys

let check_engine e =
  require_keys "engine record" e
    [
      "engine"; "switch_budget"; "crash_budget"; "domains"; "reduction";
      "executions"; "nodes"; "total_violations"; "distinct_shared_configs";
      "dedup_hit_rate"; "nodes_per_sec"; "elapsed_s"; "lin_engine";
      "leaf_checks"; "lin_elapsed_s"; "lin_checks_per_sec"; "lin_reuse_rate";
    ]

let check_checker j =
  match get_list (member "engines" j) with
  | [] -> fail "json_check: \"engines\" must be a non-empty array"
  | engines -> List.iter check_engine engines

let check_dist what d =
  require_keys what d [ "min"; "max"; "mean"; "total" ]

(* one torture report; [v] selects the report version (2 adds the
   fault-model config, the extra verdict counters and
   first_engine_fault; 3 adds the timing.alloc block; 4 adds
   timing.supervision); [top] says whether the "schema" and "timing"
   markers are required (they are omitted for reports embedded in a
   baseline file, whose timing lives in "perf") *)
let check_alloc what a =
  require_keys what a
    [ "minor_words"; "promoted_words"; "minor_collections" ]

let supervision_counter_keys =
  [
    "workers_spawned"; "worker_deaths"; "worker_hangs"; "rescues"; "retries";
    "degradations"; "inproc_trials";
  ]

let check_supervision s =
  require_keys "timing supervision" s (supervision_counter_keys @ [ "chaos" ]);
  require_keys "supervision chaos" (member "chaos" s)
    [ "kill"; "hang"; "seed" ]

let check_torture_report ?(top = true) ~v j =
  require_keys "torture report" j
    ([
       "object"; "root_seed"; "trials"; "config"; "verdicts"; "recoveries";
       "crashes"; "steps"; "max_shared_bits"; "first_failure";
     ]
    @ if v >= 2 then [ "first_engine_fault" ] else []);
  require_keys "torture config" (member "config" j)
    ([ "policy"; "crash_prob"; "max_crashes"; "max_steps" ]
    @ if v >= 2 then [ "fault"; "watchdog" ] else []);
  require_keys "torture verdicts" (member "verdicts" j)
    ([ "linearized"; "not_linearized"; "incomplete" ]
    @ if v >= 2 then [ "budget_exhausted"; "engine_faults" ] else []);
  require_keys "torture recoveries" (member "recoveries" j)
    [ "returned"; "fail_verdicts" ];
  let crashes = member "crashes" j in
  require_keys "torture crashes" crashes
    [ "injected"; "bucket_width"; "histogram" ];
  List.iter
    (fun b -> require_keys "histogram bucket" b [ "from_step"; "count" ])
    (get_list (member "histogram" crashes));
  check_dist "steps dist" (member "steps" j);
  check_dist "max_shared_bits dist" (member "max_shared_bits" j);
  (match member "first_failure" j with
  | Null -> ()
  | f ->
      require_keys "first_failure" f
        [ "trial"; "seed"; "msg"; "schedule"; "minimised"; "shrink_attempts" ]);
  (if v >= 2 then
     match member "first_engine_fault" j with
     | Null -> ()
     | f -> require_keys "first_engine_fault" f [ "trial"; "seed"; "msg" ]);
  (* v4 reports written with --no-timing drop the whole timing block —
     that is what makes them byte-comparable across torture / campaign /
     chaos / resume runs — so for v4 its absence is legal *)
  if top && (v < 4 || mem "timing" j) then begin
    let timing = member "timing" j in
    require_keys "torture timing" timing
      ([ "elapsed_s"; "trials_per_sec"; "domains" ]
      @ (if v >= 2 then [ "shards_rescued" ] else [])
      @ if v >= 3 then [ "alloc" ] else []);
    if v >= 3 then begin
      let a = member "alloc" timing in
      check_alloc "torture timing alloc" a;
      require_keys "torture timing alloc" a [ "bytes_per_trial" ]
    end;
    if v >= 4 then begin
      require_keys "torture timing" timing [ "supervision" ];
      check_supervision (member "supervision" timing)
    end
  end

(* --chaos-active: the report must record a supervision history where
   workers actually died and the supervisor actually rescued, retried
   and degraded — the teeth of the bench chaos gate *)
let check_chaos_active j =
  if not (mem "timing" j) then
    fail
      "json_check: --chaos-active needs the timing.supervision block, but \
       this report was written with --no-timing";
  let s = member "supervision" (member "timing" j) in
  List.iter
    (fun k ->
      if get_int (member k s) < 0 then
        fail "json_check: supervision counter %S is negative" k)
    supervision_counter_keys;
  List.iter
    (fun k ->
      if get_int (member k s) = 0 then
        fail
          "json_check: --chaos-active but supervision counter %S is 0 — the \
           chaos run never exercised that failure path"
          k)
    [ "rescues"; "retries"; "degradations" ]

(* embedded baseline reports carry no "schema" key; sniff the version
   from the config block *)
let torture_report_version j = if mem "fault" (member "config" j) then 2 else 1

let check_torture_baseline ~v j =
  require_keys "torture baseline" j [ "root_seed"; "trials"; "campaigns" ];
  match get_list (member "campaigns" j) with
  | [] -> fail "json_check: \"campaigns\" must be a non-empty array"
  | campaigns ->
      List.iter
        (fun c ->
          require_keys "campaign" c [ "report"; "perf" ];
          let r = member "report" c in
          check_torture_report ~top:false ~v:(torture_report_version r) r;
          let perf = member "perf" c in
          require_keys "campaign perf" perf
            ([ "elapsed_s"; "trials_per_sec"; "domains" ]
            @
            if v >= 2 then
              [ "alloc"; "min_trials_per_sec"; "max_bytes_per_trial" ]
            else []);
          if v >= 2 then begin
            let a = member "alloc" perf in
            check_alloc "campaign perf alloc" a;
            require_keys "campaign perf alloc" a [ "bytes_per_trial" ]
          end)
        campaigns

let check_fault_baseline j =
  require_keys "fault baseline" j [ "root_seed"; "trials"; "cells" ];
  match get_list (member "cells" j) with
  | [] -> fail "json_check: \"cells\" must be a non-empty array"
  | cells ->
      List.iter
        (fun c ->
          require_keys "fault cell" c
            [ "object"; "fault"; "verdicts"; "crashes_injected"; "steps_total";
              "perf" ];
          require_keys "fault cell verdicts" (member "verdicts" c)
            [
              "linearized"; "not_linearized"; "incomplete"; "budget_exhausted";
              "engine_faults";
            ];
          require_keys "fault cell perf" (member "perf" c)
            [ "elapsed_s"; "trials_per_sec"; "domains" ])
        cells

let check_modelcheck_baseline j =
  match get_list (member "cases" j) with
  | [] -> fail "json_check: \"cases\" must be a non-empty array"
  | cases ->
      List.iter
        (fun c ->
          require_keys "modelcheck case" c
            [
              "object"; "switch_budget"; "crash_budget"; "domains"; "counters";
              "perf"; "min_nodes_per_sec"; "max_bytes_per_node";
            ];
          require_keys "modelcheck counters" (member "counters" c)
            [
              "executions"; "truncated"; "nodes"; "total_violations";
              "distinct_shared_configs";
            ];
          let perf = member "perf" c in
          require_keys "modelcheck perf" perf
            [
              "elapsed_s"; "nodes_per_sec"; "rewound_cells";
              "rewound_cells_per_sec"; "intern_hit_rate"; "alloc";
            ];
          let a = member "alloc" perf in
          check_alloc "modelcheck perf alloc" a;
          require_keys "modelcheck perf alloc" a [ "bytes_per_node" ])
        cases

(* reduction-ratio section: every case must carry one run per reduction
   mode, the verdicts must agree across the modes (a reduced search
   keeps one representative per equivalence class, so the raw count of
   violating executions may shrink, but whether a violation exists may
   not — reduction soundness is visible in the committed artefact
   itself), and the recorded node_reduction must clear its own gate *)
let check_modelcheck_reductions j =
  match get_list (member "reduction_cases" j) with
  | [] -> fail "json_check: \"reduction_cases\" must be a non-empty array"
  | cases ->
      List.iter
        (fun c ->
          require_keys "reduction case" c
            [
              "object"; "switch_budget"; "crash_budget"; "runs";
              "node_reduction"; "min_node_reduction";
            ];
          let label = get_str (member "object" c) in
          let runs = get_list (member "runs" c) in
          if List.length runs < 2 then
            fail
              "json_check: reduction case %s needs at least an unreduced and \
               a reduced run"
              label;
          let viols =
            List.map
              (fun r ->
                require_keys "reduction run" r
                  [
                    "reduction"; "nodes"; "executions"; "total_violations";
                    "distinct_shared_configs";
                  ];
                ( get_str (member "reduction" r),
                  get_int (member "total_violations" r) ))
              runs
          in
          let _, v0 = List.hd viols in
          List.iter
            (fun (red, v) ->
              if v > 0 <> (v0 > 0) then
                fail
                  "json_check: reduction case %s: %s records %d violations \
                   where another mode records %d — verdict parity broken in \
                   the committed artefact"
                  label red v v0)
            viols;
          let ratio = get_num (member "node_reduction" c) in
          let gate = get_num (member "min_node_reduction" c) in
          if ratio < gate then
            fail
              "json_check: reduction case %s records node_reduction %.2f \
               under its own gate %.2f"
              label ratio gate)
        cases

(* The lower-bound validator checks the arithmetic, not just the keys:
   every case's "bound" must be 2^(n-1), every run's "meets_bound" must
   agree with its configs-vs-bound comparison, and every certifying run
   — "dpor" and "dpor+sym-memo", the modes whose config counters are
   sound lower bounds on the reachable set — must meet the bound for
   n >= 4 (the Theorem 1 acceptance gate).  Two evidence obligations on
   full sweeps (smoke runs may stop earlier): when the sweep reaches
   n >= 5, at least one case must show the unreduced search missing the
   bound under the shared node budget; and when any "dpor+sym" rows are
   present (v2), at least one must miss it — otherwise the committed
   artefact no longer demonstrates why the canonical-memo counters are
   needed. *)
let check_lowerbound_baseline ~v j =
  require_keys "lowerbound baseline" j
    ([ "object"; "crash_budget"; "cases" ]
    @ if v >= 2 then [] else [ "workload" ]);
  let get_bool what x =
    match x with
    | Bool b -> b
    | _ -> fail "json_check: %s is not a bool" what
  in
  let certifying = function "dpor" | "dpor+sym-memo" -> true | _ -> false in
  let unreduced_rows = ref 0 in
  let unreduced_miss = ref false in
  let sym_rows = ref 0 in
  let sym_misses = ref 0 in
  let max_n = ref 0 in
  (match get_list (member "cases" j) with
  | [] -> fail "json_check: \"cases\" must be a non-empty array"
  | cases ->
      List.iter
        (fun c ->
          require_keys "lowerbound case" c
            ([ "n"; "switch_budget"; "node_budget"; "bound"; "runs" ]
            @ if v >= 2 then [ "workload"; "recheck" ] else []);
          let n = get_int (member "n" c) in
          let bound = get_int (member "bound" c) in
          if n < 2 then fail "json_check: lowerbound case has n=%d < 2" n;
          max_n := max !max_n n;
          if bound <> 1 lsl (n - 1) then
            fail "json_check: lowerbound N=%d records bound %d, not 2^(N-1)=%d"
              n bound
              (1 lsl (n - 1));
          match get_list (member "runs" c) with
          | [] -> fail "json_check: case \"runs\" must be a non-empty array"
          | runs ->
              List.iter
                (fun r ->
                  require_keys "lowerbound run" r
                    ([
                       "reduction"; "configs"; "nodes"; "executions";
                       "sleep_skips"; "capped"; "meets_bound"; "elapsed_s";
                       "nodes_per_sec";
                     ]
                    @
                    if v >= 2 then
                      [ "sym_skips"; "source_skips"; "canonical_orbits" ]
                    else []);
                  let red = get_str (member "reduction" r) in
                  let configs = get_int (member "configs" r) in
                  let meets = get_bool "meets_bound" (member "meets_bound" r) in
                  if meets <> (configs >= bound) then
                    fail
                      "json_check: lowerbound N=%d %s: meets_bound=%b but \
                       configs=%d vs bound=%d"
                      n red meets configs bound;
                  (* v1 predates the non-certifying dpor+sym contrast
                     rows, so there every reduced run is held to the
                     bound; v2 also exempts capped certifying runs —
                     their counters are partial (CI smokes run the N=7
                     case under a tiny node cap), so a miss is absence
                     of evidence, not evidence of absence *)
                  let capped =
                    v >= 2 && get_bool "capped" (member "capped" r)
                  in
                  let must_certify =
                    if v >= 2 then certifying red && not capped
                    else red <> "none"
                  in
                  if must_certify && n >= 4 && not meets then
                    fail
                      "json_check: lowerbound N=%d %s misses the Theorem 1 \
                       bound (%d configs < %d)"
                      n red configs bound;
                  if red = "none" then begin
                    incr unreduced_rows;
                    if not meets then unreduced_miss := true
                  end;
                  if red = "dpor+sym" then begin
                    incr sym_rows;
                    if not meets then incr sym_misses
                  end)
                runs)
        cases);
  (* the v2 sweep may legitimately contain no unreduced rows at all
     (the N>=7 uniform cases and the CI smoke run reduced pairs only);
     the obligation applies as soon as any are present *)
  if
    !max_n >= 5
    && not !unreduced_miss
    && (v < 2 || !unreduced_rows > 0)
  then
    fail
      "json_check: lowerbound baseline shows no case where the unreduced \
       search misses the bound — the budget comparison lost its teeth";
  if v >= 2 && !sym_rows > 0 && !sym_misses = 0 then
    fail
      "json_check: lowerbound baseline has dpor+sym rows but none misses \
       the bound — the canonical-memo contrast evidence is gone"

let check_lincheck_baseline j =
  match get_list (member "cases" j) with
  | [] -> fail "json_check: \"cases\" must be a non-empty array"
  | cases ->
      List.iter
        (fun c ->
          require_keys "lincheck case" c
            [
              "object"; "kind"; "counters"; "engines"; "incremental_speedup";
              "min_speedup";
            ];
          (match get_str (member "kind" c) with
          | "modelcheck_leaves" ->
              require_keys "modelcheck_leaves case" c
                [ "switch_budget"; "crash_budget" ]
          | "torture_histories" ->
              require_keys "torture_histories case" c
                [ "trials"; "procs"; "ops_per_proc"; "seed" ]
          | k -> fail "json_check: unknown lincheck case kind %S" k);
          require_keys "lincheck counters" (member "counters" c)
            [ "checks"; "events_total"; "violations" ];
          match get_list (member "engines" c) with
          | [] -> fail "json_check: case \"engines\" must be a non-empty array"
          | engines ->
              List.iter
                (fun e ->
                  require_keys "lin engine record" e
                    [
                      "lin_engine"; "elapsed_s"; "checks_per_sec";
                      "events_pushed"; "reuse_rate";
                    ])
                engines)
        cases

let () =
  let chaos_active, path =
    match Array.to_list Sys.argv with
    | [ _; p ] -> (false, p)
    | [ _; "--chaos-active"; p ] | [ _; p; "--chaos-active" ] -> (true, p)
    | _ -> fail "usage: json_check [--chaos-active] FILE"
  in
  match of_file path with
  | exception Error m -> fail "json_check: %s: %s" path m
  | j -> (
      let schema =
        match get_str (member "schema" j) with
        | s -> s
        | exception Error m -> fail "json_check: %s: %s" path m
      in
      if chaos_active && schema <> "detectable-torture/v4" then
        fail
          "json_check: --chaos-active only applies to detectable-torture/v4 \
           reports, not %S"
          schema;
      match schema with
      | "detectable-bench/checker-v1" ->
          check_checker j;
          print_endline "bench --json output: valid"
      | "detectable-torture/v1" ->
          check_torture_report ~v:1 j;
          print_endline "torture report: valid"
      | "detectable-torture/v2" ->
          check_torture_report ~v:2 j;
          print_endline "torture report: valid"
      | "detectable-torture/v3" ->
          check_torture_report ~v:3 j;
          print_endline "torture report: valid"
      | "detectable-torture/v4" ->
          check_torture_report ~v:4 j;
          if chaos_active then check_chaos_active j;
          print_endline
            (if chaos_active then "torture report: valid, chaos active"
             else "torture report: valid")
      | "detectable-bench/torture-v1" ->
          check_torture_baseline ~v:1 j;
          print_endline "torture baseline: valid"
      | "detectable-bench/torture-v2" ->
          check_torture_baseline ~v:2 j;
          print_endline "torture baseline: valid"
      | "detectable-bench/fault-v1" ->
          check_fault_baseline j;
          print_endline "fault baseline: valid"
      | "detectable-modelcheck/v4" ->
          check_modelcheck_baseline j;
          check_modelcheck_reductions j;
          print_endline "modelcheck baseline: valid"
      | "detectable-lincheck/v1" ->
          check_lincheck_baseline j;
          print_endline "lincheck baseline: valid"
      | "detectable-bench/lowerbound-v1" ->
          check_lowerbound_baseline ~v:1 j;
          print_endline "lowerbound baseline: valid"
      | "detectable-bench/lowerbound-v2" ->
          check_lowerbound_baseline ~v:2 j;
          print_endline "lowerbound baseline: valid"
      | s -> fail "json_check: unknown schema %S" s
      | exception Error m -> fail "json_check: %s: %s" path m)
