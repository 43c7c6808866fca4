(* Benchmark & experiment harness.

   Running `dune exec bench/main.exe` regenerates, in order:

   - every experiment table E1-E10 (the paper's figures, theorems and
     complexity claims — see DESIGN.md's per-experiment index);
   - T1a: simulated primitive-steps-per-operation costs (the
     hardware-independent cost model of each implementation);
   - T1b: Bechamel wall-clock micro-benchmarks of the same workloads (the
     cost of implementation + simulator on this machine). *)

open Dtc_util
open Nvm
open Runtime
open History
open Sched

let i n = Value.Int n

(* ------------------------------------------------------------------ *)
(* T1a: simulated steps per operation *)

let solo_steps ~mk ~ops_of =
  let machine, inst = mk () in
  let ops = ops_of () in
  let cfg = { Driver.default_config with max_steps = 10_000_000 } in
  let res = Driver.run machine inst ~workloads:[| ops |] cfg in
  if res.Driver.incomplete then failwith "bench run incomplete";
  float_of_int res.Driver.steps /. float_of_int (List.length ops)

let steps_table () =
  let t =
    Table.create
      ~title:
        "T1a: simulated primitive steps per operation (solo, 100 ops, incl. \
         announce/clear protocol)"
      [ "implementation"; "workload"; "steps/op" ]
  in
  let k = 100 in
  let row label mk ops_of =
    Table.add_row t
      [ label; "100 ops"; Printf.sprintf "%.1f" (solo_steps ~mk ~ops_of) ]
  in
  let writes () = List.init k (fun j -> Spec.write_op (i (j mod 4))) in
  let cases () =
    List.init k (fun j ->
        if j mod 2 = 0 then Spec.cas_op (i 0) (i 1) else Spec.cas_op (i 1) (i 0))
  in
  row "drw (Alg.1, N=3)"
    (fun () ->
      let m = Machine.create () in
      (m, Detectable.Drw.instance (Detectable.Drw.create m ~n:3 ~init:(i 0))))
    writes;
  row "urw (unbounded tags, N=3)"
    (fun () ->
      let m = Machine.create () in
      (m, Baselines.Urw.instance (Baselines.Urw.create m ~n:3 ~init:(i 0))))
    writes;
  row "plain register (not recoverable)"
    (fun () ->
      let m = Machine.create () in
      (m, Baselines.Plain.register m ~init:(i 0)))
    writes;
  row "dcas (Alg.2, N=3)"
    (fun () ->
      let m = Machine.create () in
      (m, Detectable.Dcas.instance (Detectable.Dcas.create m ~n:3 ~init:(i 0))))
    cases;
  row "ucas (unbounded tags, N=3)"
    (fun () ->
      let m = Machine.create () in
      (m, Baselines.Ucas.instance (Baselines.Ucas.create m ~n:3 ~init:(i 0))))
    cases;
  row "plain cas (not recoverable)"
    (fun () ->
      let m = Machine.create () in
      (m, Baselines.Plain.cas_cell m ~init:(i 0)))
    cases;
  row "dmax (Alg.3, N=3)"
    (fun () ->
      let m = Machine.create () in
      (m, Detectable.Dmax.instance (Detectable.Dmax.create m ~n:3 ~init:0)))
    (fun () ->
      List.init k (fun j -> if j mod 2 = 0 then Spec.write_max_op j else Spec.read_op));
  row "dcounter (capsule, N=3)"
    (fun () ->
      let m = Machine.create () in
      ( m,
        Detectable.Transform.instance
          (Detectable.Transform.counter m ~n:3 ~init:0) ))
    (fun () -> List.init k (fun _ -> Spec.inc_op));
  row "plain counter (not recoverable)"
    (fun () ->
      let m = Machine.create () in
      (m, Baselines.Plain.counter m ~init:0))
    (fun () -> List.init k (fun _ -> Spec.inc_op));
  row "dqueue (N=3)"
    (fun () ->
      let m = Machine.create () in
      ( m,
        Detectable.Dqueue.instance (Detectable.Dqueue.create m ~n:3 ~capacity:128)
      ))
    (fun () ->
      List.init k (fun j -> if j mod 2 = 0 then Spec.enq_op (i j) else Spec.deq_op));
  row "plain queue (not recoverable)"
    (fun () ->
      let m = Machine.create () in
      (m, Baselines.Plain.queue m ~capacity:128))
    (fun () ->
      List.init k (fun j -> if j mod 2 = 0 then Spec.enq_op (i j) else Spec.deq_op));
  row "dprotected (lock-based, N=3)"
    (fun () ->
      let m = Machine.create () in
      (m, Detectable.Dprotected.instance (Detectable.Dprotected.create m ~n:3 ~init:0)))
    (fun () -> List.init k (fun _ -> Spec.inc_op));
  row "ulog register (universal, N=3)"
    (fun () ->
      let m = Machine.create () in
      ( m,
        Detectable.Ulog.instance
          (Detectable.Ulog.create m ~n:3 ~capacity:(k + 4)
             ~spec:(Spec.register (i 0))) ))
    writes;
  t

(* The N-dependence of Algorithm 1's write (its toggle-raising loop). *)
let drw_scaling_table () =
  let t =
    Table.create
      ~title:"T1a': Algorithm 1 write cost grows linearly in N (the toggle loop)"
      [ "N"; "steps per write (solo)" ]
  in
  List.iter
    (fun n ->
      let steps =
        solo_steps
          ~mk:(fun () ->
            let m = Machine.create () in
            (m, Detectable.Drw.instance (Detectable.Drw.create m ~n ~init:(i 0))))
          ~ops_of:(fun () -> List.init 50 (fun j -> Spec.write_op (i (j mod 3))))
      in
      Table.add_row t [ string_of_int n; Printf.sprintf "%.1f" steps ])
    [ 2; 4; 8; 16; 32 ];
  t

(* ------------------------------------------------------------------ *)
(* T1b: Bechamel wall-clock micro-benchmarks *)

let bech_workload ~mk ~ops () =
  let machine, inst = mk () in
  let cfg = { Driver.default_config with max_steps = 1_000_000 } in
  ignore (Driver.run machine inst ~workloads:[| ops |] cfg)

let bechamel_tests () =
  let open Bechamel in
  let mk_test name mk ops =
    Test.make ~name (Staged.stage (bech_workload ~mk ~ops))
  in
  let writes = List.init 50 (fun j -> Spec.write_op (i (j mod 4))) in
  let cases =
    List.init 50 (fun j ->
        if j mod 2 = 0 then Spec.cas_op (i 0) (i 1) else Spec.cas_op (i 1) (i 0))
  in
  let qops =
    List.init 50 (fun j -> if j mod 2 = 0 then Spec.enq_op (i j) else Spec.deq_op)
  in
  Test.make_grouped ~name:"bench" ~fmt:"%s.%s"
    [
      mk_test "drw.write"
        (fun () ->
          let m = Machine.create () in
          (m, Detectable.Drw.instance (Detectable.Drw.create m ~n:3 ~init:(i 0))))
        writes;
      mk_test "urw.write"
        (fun () ->
          let m = Machine.create () in
          (m, Baselines.Urw.instance (Baselines.Urw.create m ~n:3 ~init:(i 0))))
        writes;
      mk_test "plain.write"
        (fun () ->
          let m = Machine.create () in
          (m, Baselines.Plain.register m ~init:(i 0)))
        writes;
      mk_test "dcas.cas"
        (fun () ->
          let m = Machine.create () in
          (m, Detectable.Dcas.instance (Detectable.Dcas.create m ~n:3 ~init:(i 0))))
        cases;
      mk_test "ucas.cas"
        (fun () ->
          let m = Machine.create () in
          (m, Baselines.Ucas.instance (Baselines.Ucas.create m ~n:3 ~init:(i 0))))
        cases;
      mk_test "plain.cas"
        (fun () ->
          let m = Machine.create () in
          (m, Baselines.Plain.cas_cell m ~init:(i 0)))
        cases;
      mk_test "dqueue.enqdeq"
        (fun () ->
          let m = Machine.create () in
          ( m,
            Detectable.Dqueue.instance
              (Detectable.Dqueue.create m ~n:3 ~capacity:128) ))
        qops;
      mk_test "plain_queue.enqdeq"
        (fun () ->
          let m = Machine.create () in
          (m, Baselines.Plain.queue m ~capacity:128))
        qops;
    ]

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] (bechamel_tests ()) in
  let results = Analyze.all ols instance raw in
  let t =
    Table.create ~title:"T1b: wall-clock per 50-op solo workload (Bechamel OLS)"
      [ "benchmark"; "time/run"; "us/op" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, ns) ->
      Table.add_row t
        [
          name;
          Printf.sprintf "%.0f ns" ns;
          Printf.sprintf "%.2f" (ns /. 1000.0 /. 50.0);
        ])
    (List.sort compare !rows);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Checker-throughput benchmark, JSON output (`bench/main.exe --json`).

   Emits one machine-readable record per engine configuration on the
   Dcas N=3 acceptance workload, so the model checker's throughput —
   nodes/sec, dedup hit rate, budget reach — is a benchmark trajectory
   future PRs can track.  The tier-1 test suite smoke-runs this mode and
   parses the output (bench/json_check.ml), so the format must stay
   valid JSON. *)

let mk_dcas_n3 () =
  let m = Machine.create () in
  (m, Detectable.Dcas.instance (Detectable.Dcas.create m ~n:3 ~init:(i 0)))

let dcas_n3_workload =
  [|
    [ Spec.cas_op (i 0) (i 1) ];
    [ Spec.cas_op (i 1) (i 2) ];
    [ Spec.cas_op (i 0) (i 2) ];
  |]

let mk_drw_n2 () =
  let m = Machine.create () in
  (m, Detectable.Drw.instance (Detectable.Drw.create m ~n:2 ~init:(i 0)))

let drw_n2_workload =
  [| [ Spec.write_op (i 1); Spec.read_op ]; [ Spec.write_op (i 2) ] |]

let engine_json ~engine ~workload (cfg : Modelcheck.Explore.config)
    (out : Modelcheck.Explore.outcome) =
  let m = out.Modelcheck.Explore.metrics in
  let hit_rate =
    let total = m.Modelcheck.Explore.dedup_hits + out.Modelcheck.Explore.nodes in
    if total = 0 then 0.0
    else float_of_int m.Modelcheck.Explore.dedup_hits /. float_of_int total
  in
  Printf.sprintf
    {|    { "engine": %S, "workload": %S,
      "switch_budget": %d, "crash_budget": %d,
      "domains": %d, "prune": %b, "reduction": %S,
      "executions": %d, "truncated": %d, "nodes": %d,
      "total_violations": %d, "distinct_shared_configs": %d,
      "dedup_hits": %d, "dedup_hit_rate": %.4f, "nodes_saved": %d,
      "peak_visited": %d, "elapsed_s": %.6f, "nodes_per_sec": %.1f,
      "rewound_cells": %d, "rewound_cells_per_sec": %.1f,
      "intern_hit_rate": %.4f,
      "lin_engine": %S, "leaf_checks": %d, "lin_elapsed_s": %.6f,
      "lin_checks_per_sec": %.1f, "lin_reuse_rate": %.4f }|}
    engine workload
    cfg.Modelcheck.Explore.switch_budget
    cfg.Modelcheck.Explore.crash_budget m.Modelcheck.Explore.domains_used
    cfg.Modelcheck.Explore.prune m.Modelcheck.Explore.reduction
    out.Modelcheck.Explore.executions
    out.Modelcheck.Explore.truncated out.Modelcheck.Explore.nodes
    out.Modelcheck.Explore.total_violations
    out.Modelcheck.Explore.distinct_shared_configs
    m.Modelcheck.Explore.dedup_hits hit_rate
    m.Modelcheck.Explore.nodes_saved m.Modelcheck.Explore.peak_visited
    m.Modelcheck.Explore.elapsed_s m.Modelcheck.Explore.nodes_per_sec
    m.Modelcheck.Explore.rewound_cells
    m.Modelcheck.Explore.rewound_cells_per_sec
    m.Modelcheck.Explore.intern_hit_rate m.Modelcheck.Explore.lin_engine
    m.Modelcheck.Explore.leaf_checks m.Modelcheck.Explore.lin_elapsed_s
    m.Modelcheck.Explore.lin_checks_per_sec
    m.Modelcheck.Explore.lin_reuse_rate

let checker_json ~budget ~smoke =
  let base =
    {
      Modelcheck.Explore.default_config with
      switch_budget = budget;
      crash_budget = 1;
    }
  in
  (* On a single-core box extra domains only buy stop-the-world GC
     synchronisation, so follow the runtime's recommendation. *)
  let domains = min 8 (Domain.recommended_domain_count ()) in
  let dcas_runs =
    [
      ("seed_unpruned", { base with Modelcheck.Explore.prune = false });
      ("pruned", base);
      ("pruned_parallel", { base with Modelcheck.Explore.domains = domains });
      ( "pruned_parallel_budget_plus",
        {
          base with
          Modelcheck.Explore.switch_budget = base.Modelcheck.Explore.switch_budget + 1;
          domains;
        } );
    ]
  in
  (* the DRW acceptance row at switch_budget = 4, single domain.
     Skipped under --smoke (it runs for several seconds). *)
  let drw_runs =
    if smoke then []
    else
      [
        ( "drw_sw4",
          {
            Modelcheck.Explore.default_config with
            switch_budget = 4;
            crash_budget = 1;
          } );
      ]
  in
  let results =
    List.map
      (fun (engine, cfg) ->
        let out =
          Modelcheck.Explore.explore ~mk:mk_dcas_n3 ~workloads:dcas_n3_workload
            cfg
        in
        engine_json ~engine ~workload:"dcas_n3_one_cas_each" cfg out)
      dcas_runs
    @ List.map
        (fun (engine, cfg) ->
          let out =
            Modelcheck.Explore.explore ~mk:mk_drw_n2 ~workloads:drw_n2_workload
              cfg
          in
          engine_json ~engine ~workload:"drw_n2_write_read" cfg out)
        drw_runs
  in
  Printf.printf
    "{\n  \"schema\": \"detectable-bench/checker-v1\",\n  \"workload\": \
     \"dcas_n3_one_cas_each\",\n  \"base_switch_budget\": %d,\n  \"engines\": \
     [\n%s\n  ]\n}\n"
    budget
    (String.concat ",\n" results)

(* ------------------------------------------------------------------ *)
(* Torture bench baselines (`--baseline` / `--compare`).

   `--baseline` runs the standard torture campaigns and writes
   BENCH_torture.json (schema detectable-bench/torture-v2): per campaign
   the full deterministic run report plus the measured throughput and
   allocation profile, and two explicit perf gates —
   [min_trials_per_sec], the throughput floor (1.5x what the artifact
   recorded before the ISSUE 8 allocation overhaul), and
   [max_bytes_per_trial], an allocation ceiling at 4x the measured
   per-trial footprint.  `--compare FILE` reruns the same campaigns at
   the file's recorded (root_seed, trials) and diffs: the deterministic
   counters must match exactly (they are a pure function of the code and
   the seed — any drift is a behavioral change that must be acknowledged
   by regenerating the baseline); throughput must stay within tolerance
   of the recorded value AND above the recorded floor scaled by the
   tolerance (default 10x, machines differ); the fresh bytes_per_trial
   must stay under the recorded ceiling exactly — allocation counts
   don't depend on the machine, so the ceiling needs no tolerance.
   `dune build @bench-check` runs the comparison against the committed
   baseline. *)

(* Throughput floors written into regenerated baselines: 1.5x (torture
   trials/sec) and 1.3x (modelcheck nodes/sec) over the numbers the
   committed artifacts recorded before the allocation-discipline
   overhaul, per ISSUE 8's acceptance gates.  Keyed by case label so a
   renamed/added case simply gets no floor until one is decided. *)
let torture_tps_floor = function
  | "dcas_n3_mix" -> 5472.0 (* 1.5 x 3648.3 *)
  | "dqueue_n3_mix" -> 1798.0 (* 1.5 x 1198.7 *)
  | "drw_n3_mix" -> 4463.0 (* 1.5 x 2975.2 *)
  | _ -> 0.0

let mc_nps_floor = function
  | "drw_n2_write_read" -> 393_906.0 (* 1.3 x 303004.5 *)
  | "dcas_n3_one_cas_each" -> 427_144.0 (* 1.3 x 328572.5 *)
  | _ -> 0.0

let alloc_ceiling_factor = 4.0

let torture_campaigns : Torture.spec list =
  [
    Torture.default_spec_of ~label:"dcas_n3_mix" ~mk:mk_dcas_n3
      ~workloads_of_seed:(fun s ->
        Workload.cas (Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:2)
      ();
    Torture.default_spec_of ~label:"dqueue_n3_mix"
      ~mk:(fun () ->
        let m = Machine.create () in
        ( m,
          Detectable.Dqueue.instance (Detectable.Dqueue.create m ~n:3 ~capacity:64)
        ))
      ~workloads_of_seed:(fun s ->
        Workload.queue (Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:3)
      ();
    Torture.default_spec_of ~label:"drw_n3_mix"
      ~mk:(fun () ->
        let m = Machine.create () in
        (m, Detectable.Drw.instance (Detectable.Drw.create m ~n:3 ~init:(i 0))))
      ~workloads_of_seed:(fun s ->
        Workload.register (Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:2)
      ();
  ]

let indent_lines ~by s =
  String.split_on_char '\n' s
  |> List.map (fun l -> if l = "" then l else by ^ l)
  |> String.concat "\n"

let torture_baseline ~out ~trials ~root_seed ~domains =
  let campaigns =
    List.map
      (fun (spec : Torture.spec) ->
        let r = Torture.run ~domains ~root_seed ~trials spec in
        Printf.sprintf
          "    {\n\
          \      \"report\":\n\
           %s,\n\
          \      \"perf\": { \"elapsed_s\": %.6f, \"trials_per_sec\": %.1f, \
           \"domains\": %d,\n\
          \        \"alloc\": { \"minor_words\": %.0f, \"promoted_words\": \
           %.0f, \"minor_collections\": %d, \"bytes_per_trial\": %.1f },\n\
          \        \"min_trials_per_sec\": %.1f, \"max_bytes_per_trial\": \
           %.0f }\n\
          \    }"
          (indent_lines ~by:"      "
             (String.trim (Torture.to_json ~timing:false r)))
          r.Torture.elapsed_s r.Torture.trials_per_sec r.Torture.domains_used
          r.Torture.alloc_minor_words r.Torture.alloc_promoted_words
          r.Torture.alloc_minor_collections r.Torture.bytes_per_trial
          (torture_tps_floor spec.Torture.label)
          (r.Torture.bytes_per_trial *. alloc_ceiling_factor))
      torture_campaigns
  in
  let doc =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"detectable-bench/torture-v2\",\n\
      \  \"root_seed\": %d,\n\
      \  \"trials\": %d,\n\
      \  \"campaigns\": [\n%s\n  ]\n}\n"
      root_seed trials
      (String.concat ",\n" campaigns)
  in
  let oc = open_out out in
  output_string oc doc;
  close_out oc;
  Printf.printf "torture baseline (%d campaigns, %d trials each) written to %s\n"
    (List.length torture_campaigns) trials out

let torture_compare ~j ~file ~tolerance ~domains =
  let open Tiny_json in
  let fail_cnt = ref 0 in
  (try
     let root_seed = get_int (member "root_seed" j) in
     let trials = get_int (member "trials" j) in
     List.iter
       (fun campaign ->
         let base = member "report" campaign in
         let label = get_str (member "object" base) in
         match
           List.find_opt
             (fun (s : Torture.spec) -> s.Torture.label = label)
             torture_campaigns
         with
         | None ->
             incr fail_cnt;
             Printf.printf
               "%-16s UNKNOWN campaign (renamed/removed?) — regenerate the \
                baseline with --baseline\n"
               label
         | Some spec ->
             let fresh = Torture.run ~domains ~root_seed ~trials spec in
             let verdicts = member "verdicts" base in
             let mismatches =
               List.filter_map
                 (fun (name, want, got) ->
                   if want = got then None
                   else Some (Printf.sprintf "%s: baseline %d, fresh %d" name want got))
                 [
                   ("linearized", get_int (member "linearized" verdicts),
                    fresh.Torture.linearized);
                   ("not_linearized", get_int (member "not_linearized" verdicts),
                    fresh.Torture.not_linearized);
                   ("incomplete", get_int (member "incomplete" verdicts),
                    fresh.Torture.incomplete);
                   ("crashes.injected",
                    get_int (member "injected" (member "crashes" base)),
                    fresh.Torture.crashes_injected);
                   ("recoveries.returned",
                    get_int (member "returned" (member "recoveries" base)),
                    fresh.Torture.rec_returned);
                   ("recoveries.fail_verdicts",
                    get_int (member "fail_verdicts" (member "recoveries" base)),
                    fresh.Torture.rec_failed);
                   ("steps.total", get_int (member "total" (member "steps" base)),
                    fresh.Torture.steps.Torture.d_total);
                   ("steps.max", get_int (member "max" (member "steps" base)),
                    fresh.Torture.steps.Torture.d_max);
                   ("max_shared_bits.max",
                    get_int (member "max" (member "max_shared_bits" base)),
                    fresh.Torture.max_shared_bits.Torture.d_max);
                 ]
             in
             let perf = member "perf" campaign in
             let base_tps = get_num (member "trials_per_sec" perf) in
             let ratio = fresh.Torture.trials_per_sec /. Float.max base_tps 1e-9 in
             (* v2 gates; absent from v1-era baselines, then not enforced *)
             let tps_floor =
               if mem "min_trials_per_sec" perf then
                 get_num (member "min_trials_per_sec" perf)
               else 0.0
             in
             let bytes_ceiling =
               if mem "max_bytes_per_trial" perf then
                 Some (get_num (member "max_bytes_per_trial" perf))
               else None
             in
             if mismatches <> [] then begin
               incr fail_cnt;
               Printf.printf "%-16s DETERMINISM MISMATCH\n" label;
               List.iter (Printf.printf "  %s\n") mismatches;
               Printf.printf
                 "  (behavioral change: regenerate the baseline with \
                  --baseline and explain it in the PR)\n"
             end
             else if
               match bytes_ceiling with
               | Some c -> fresh.Torture.bytes_per_trial > c
               | None -> false
             then begin
               (* allocation counts are machine-independent: no tolerance *)
               incr fail_cnt;
               Printf.printf
                 "%-16s ALLOC REGRESSION: %.0f bytes/trial over the recorded \
                  ceiling %.0f\n"
                 label fresh.Torture.bytes_per_trial
                 (Option.value bytes_ceiling ~default:0.0)
             end
             else if fresh.Torture.trials_per_sec *. tolerance < tps_floor
             then begin
               incr fail_cnt;
               Printf.printf
                 "%-16s THROUGHPUT GATE: %.1f trials/sec under the recorded \
                  floor %.1f even at tolerance %.0fx\n"
                 label fresh.Torture.trials_per_sec tps_floor tolerance
             end
             else if ratio < 1.0 /. tolerance then begin
               incr fail_cnt;
               Printf.printf
                 "%-16s PERF REGRESSION: %.1f trials/sec vs baseline %.1f \
                  (%.2fx, tolerance %.0fx)\n"
                 label fresh.Torture.trials_per_sec base_tps ratio tolerance
             end
             else
               Printf.printf
                 "%-16s ok: counters exact, %.1f trials/sec vs baseline %.1f \
                  (%.2fx), %.0f bytes/trial%s\n"
                 label fresh.Torture.trials_per_sec base_tps ratio
                 fresh.Torture.bytes_per_trial
                 (match bytes_ceiling with
                 | Some c -> Printf.sprintf " (ceiling %.0f)" c
                 | None -> ""))
       (get_list (member "campaigns" j))
   with Tiny_json.Error m ->
     Printf.eprintf "bench --compare: %s: %s\n" file m;
     exit 1);
  if !fail_cnt = 0 then print_endline "torture baseline comparison: ok"
  else begin
    Printf.printf "torture baseline comparison: %d campaign(s) failed\n"
      !fail_cnt;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fault-model matrix baseline (BENCH_fault.json, schema
   detectable-bench/fault-v1).

   One torture campaign per (object, fault model) cell: the three
   single-word detectable objects of the paper, the two broken
   ablations, crossed with every fault model.  Non-atomic fault models
   only bite when a crash can lose volatile state, so those cells run
   the object on a shared-cache machine with a persist after every
   shared access (the Section 6 transformation); atomic cells keep the
   historical private-cache setup.  The verdict counters per cell are a
   pure function of (cell, root_seed, trials), so `--compare`
   exact-matches them; the documented expectations (docs/TORTURE.md):
   Drw/Dcas/Dmax survive drop and reorder by design, the broken
   ablations are flagged under every model, and torn — which breaks the
   per-word atomic-persistence assumption the paper's model makes —
   additionally tears Dcas's composite words. *)

let fault_matrix_faults =
  [
    Fault_model.Atomic;
    Fault_model.Drop { keep_prob = 0.7 };
    Fault_model.Torn { granularity = 1 };
    Fault_model.Reorder;
  ]

let fault_matrix_objects = function
  | "drw" ->
      Some
        ( (fun ~model ~persist () ->
            let m = Machine.create ~model () in
            (m, Detectable.Drw.instance (Detectable.Drw.create ~persist m ~n:3 ~init:(i 0)))),
          fun s -> Workload.register (Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:3 )
  | "dcas" ->
      Some
        ( (fun ~model ~persist () ->
            let m = Machine.create ~model () in
            (m, Detectable.Dcas.instance (Detectable.Dcas.create ~persist m ~n:3 ~init:(i 0)))),
          fun s -> Workload.cas (Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:3 )
  | "dmax" ->
      Some
        ( (fun ~model ~persist () ->
            let m = Machine.create ~model () in
            (m, Detectable.Dmax.instance (Detectable.Dmax.create ~persist m ~n:3 ~init:0))),
          fun s ->
            Workload.max_register (Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:8 )
  | "broken_drw_no_toggle" ->
      Some
        ( (fun ~model ~persist () ->
            let m = Machine.create ~model () in
            (m, Baselines.Broken.drw_no_toggle ~persist m ~n:3 ~init:(i 0))),
          fun s -> Workload.register (Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:3 )
  | "broken_dcas_no_vec" ->
      Some
        ( (fun ~model ~persist () ->
            let m = Machine.create ~model () in
            (m, Baselines.Broken.dcas_no_vec ~persist m ~n:3 ~init:(i 0))),
          fun s -> Workload.cas (Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:3 )
  | _ -> None

let fault_matrix_labels =
  [ "drw"; "dcas"; "dmax"; "broken_drw_no_toggle"; "broken_dcas_no_vec" ]

let fault_run_cell ~label ~fault ~root_seed ~trials ~domains =
  let mk, workloads_of_seed =
    match fault_matrix_objects label with
    | Some mw -> mw
    | None -> failwith ("unknown fault matrix object " ^ label)
  in
  let model, persist =
    match (fault : Fault_model.t) with
    | Fault_model.Atomic -> (Machine.Private_cache, false)
    | _ -> (Machine.Shared_cache, true)
  in
  let spec =
    Torture.default_spec_of ~label ~mk:(mk ~model ~persist) ~workloads_of_seed
      ~fault ()
  in
  Torture.run ~domains ~root_seed ~trials ~shrink:false spec

let fault_cell_json ~label ~fault (r : Torture.report) =
  Printf.sprintf
    "    { \"object\": %S, \"fault\": %S,\n\
    \      \"verdicts\": { \"linearized\": %d, \"not_linearized\": %d, \
     \"incomplete\": %d, \"budget_exhausted\": %d, \"engine_faults\": %d },\n\
    \      \"crashes_injected\": %d, \"steps_total\": %d,\n\
    \      \"perf\": { \"elapsed_s\": %.6f, \"trials_per_sec\": %.1f, \
     \"domains\": %d } }"
    label
    (Fault_model.to_string fault)
    r.Torture.linearized r.Torture.not_linearized r.Torture.incomplete
    r.Torture.budget_exhausted r.Torture.engine_faults
    r.Torture.crashes_injected r.Torture.steps.Torture.d_total
    r.Torture.elapsed_s r.Torture.trials_per_sec r.Torture.domains_used

let fault_baseline ~out ~trials ~root_seed ~domains =
  let cells =
    List.concat_map
      (fun label ->
        List.map
          (fun fault ->
            let r = fault_run_cell ~label ~fault ~root_seed ~trials ~domains in
            Printf.printf "%-22s %-16s flagged %d / %d trials\n%!" label
              (Fault_model.to_string fault)
              r.Torture.not_linearized trials;
            fault_cell_json ~label ~fault r)
          fault_matrix_faults)
      fault_matrix_labels
  in
  let doc =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"detectable-bench/fault-v1\",\n\
      \  \"root_seed\": %d,\n\
      \  \"trials\": %d,\n\
      \  \"cells\": [\n%s\n  ]\n}\n"
      root_seed trials
      (String.concat ",\n" cells)
  in
  let oc = open_out out in
  output_string oc doc;
  close_out oc;
  Printf.printf "fault baseline (%d cells, %d trials each) written to %s\n"
    (List.length cells) trials out

let fault_compare ~j ~file ~tolerance ~domains =
  let open Tiny_json in
  let fail_cnt = ref 0 in
  (try
     let root_seed = get_int (member "root_seed" j) in
     let trials = get_int (member "trials" j) in
     List.iter
       (fun cell ->
         let label = get_str (member "object" cell) in
         let fault_s = get_str (member "fault" cell) in
         let tag = Printf.sprintf "%s / %s" label fault_s in
         match
           (fault_matrix_objects label, Fault_model.of_string fault_s)
         with
         | None, _ | _, Error _ ->
             incr fail_cnt;
             Printf.printf
               "%-36s UNKNOWN cell (renamed/removed?) — regenerate the \
                baseline with --baseline\n"
               tag
         | Some _, Ok fault ->
             let fresh =
               fault_run_cell ~label ~fault ~root_seed ~trials ~domains
             in
             let verdicts = member "verdicts" cell in
             let mismatches =
               List.filter_map
                 (fun (name, want, got) ->
                   if want = got then None
                   else
                     Some
                       (Printf.sprintf "%s: baseline %d, fresh %d" name want got))
                 [
                   ("linearized", get_int (member "linearized" verdicts),
                    fresh.Torture.linearized);
                   ("not_linearized", get_int (member "not_linearized" verdicts),
                    fresh.Torture.not_linearized);
                   ("incomplete", get_int (member "incomplete" verdicts),
                    fresh.Torture.incomplete);
                   ("budget_exhausted",
                    get_int (member "budget_exhausted" verdicts),
                    fresh.Torture.budget_exhausted);
                   ("engine_faults", get_int (member "engine_faults" verdicts),
                    fresh.Torture.engine_faults);
                   ("crashes_injected", get_int (member "crashes_injected" cell),
                    fresh.Torture.crashes_injected);
                   ("steps_total", get_int (member "steps_total" cell),
                    fresh.Torture.steps.Torture.d_total);
                 ]
             in
             let base_tps =
               get_num (member "trials_per_sec" (member "perf" cell))
             in
             let ratio = fresh.Torture.trials_per_sec /. Float.max base_tps 1e-9 in
             if mismatches <> [] then begin
               incr fail_cnt;
               Printf.printf "%-36s DETERMINISM MISMATCH\n" tag;
               List.iter (Printf.printf "  %s\n") mismatches;
               Printf.printf
                 "  (behavioral change: regenerate the baseline with \
                  --baseline and explain it in the PR)\n"
             end
             else if ratio < 1.0 /. tolerance then begin
               incr fail_cnt;
               Printf.printf
                 "%-36s PERF REGRESSION: %.1f trials/sec vs baseline %.1f \
                  (%.2fx, tolerance %.0fx)\n"
                 tag fresh.Torture.trials_per_sec base_tps ratio tolerance
             end
             else
               Printf.printf
                 "%-36s ok: counters exact, %.1f trials/sec vs baseline %.1f \
                  (%.2fx)\n"
                 tag fresh.Torture.trials_per_sec base_tps ratio)
       (get_list (member "cells" j))
   with Tiny_json.Error m ->
     Printf.eprintf "bench --compare: %s: %s\n" file m;
     exit 1);
  if !fail_cnt = 0 then print_endline "fault baseline comparison: ok"
  else begin
    Printf.printf "fault baseline comparison: %d cell(s) failed\n" !fail_cnt;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Modelcheck baselines (BENCH_modelcheck.json, schema
   detectable-modelcheck/v4).

   `--baseline` runs each modelcheck case and writes its deterministic
   counters, its throughput and allocation profile ("perf"), and two
   perf gates: "min_nodes_per_sec" (the throughput floor, 1.3x what the
   artifact recorded before the allocation overhaul) and
   "max_bytes_per_node" (4x the measured allocation).  `--compare` on a
   file with this schema reruns the cases at the file's recorded
   budgets and diffs: counters exactly, throughput within the tolerance
   of the recorded value and above the floor scaled by the tolerance,
   and the fresh bytes/node under the ceiling exactly (allocation
   counts are machine-independent).

   The "reduction_cases" section defined further down explores one
   config under every reduction mode, with exact counters, verdict
   parity and a minimum none/dpor+sym-memo node-count ratio as recorded
   gates. *)

let mc_cases ~budget =
  [
    ("drw_n2_write_read", budget, 1);
    ("dcas_n3_one_cas_each", max 1 (budget - 2), 1);
  ]

let mc_factory = function
  | "drw_n2_write_read" -> Some (mk_drw_n2, drw_n2_workload)
  | "dcas_n3_one_cas_each" -> Some (mk_dcas_n3, dcas_n3_workload)
  | _ -> None

let mc_run_case ~label ~switches ~crashes =
  let mk, workloads =
    match mc_factory label with
    | Some mw -> mw
    | None -> failwith ("unknown modelcheck bench case " ^ label)
  in
  (* pay off the major-GC debt of whatever ran before (earlier cases,
     other baselines) off the measured clock: OCaml 5.1 has no
     compaction, so an unsettled heap taxes the timed search *)
  Gc.full_major ();
  Gc.full_major ();
  Gc.full_major ();
  Modelcheck.Explore.explore ~mk ~workloads
    {
      Modelcheck.Explore.default_config with
      switch_budget = switches;
      crash_budget = crashes;
    }

let mc_perf_json (o : Modelcheck.Explore.outcome) =
  let m = o.Modelcheck.Explore.metrics in
  Printf.sprintf
    {|{ "elapsed_s": %.6f, "nodes_per_sec": %.1f,
        "rewound_cells": %d, "rewound_cells_per_sec": %.1f,
        "intern_hit_rate": %.4f,
        "alloc": { "minor_words": %.0f, "promoted_words": %.0f, "minor_collections": %d, "bytes_per_node": %.1f } }|}
    m.Modelcheck.Explore.elapsed_s m.Modelcheck.Explore.nodes_per_sec
    m.Modelcheck.Explore.rewound_cells
    m.Modelcheck.Explore.rewound_cells_per_sec
    m.Modelcheck.Explore.intern_hit_rate m.Modelcheck.Explore.minor_words
    m.Modelcheck.Explore.promoted_words m.Modelcheck.Explore.minor_collections
    m.Modelcheck.Explore.bytes_per_node

(* --- reduction-ratio cases ------------------------------------------

   One config explored under every reduction mode: the committed rows
   pin the node counts of [`None]/[`Dpor]/[`Dpor_sym]/[`Dpor_sym_memo]
   on the same search, the verdicts must agree across all modes
   (reduction prunes interleavings, never the bug), and
   "min_node_reduction" gates how much smaller the strongest mode's
   tree must stay relative to the unreduced one.  Two configs: a
   healthy uniform dcas (the canonical-memo mode fully active, verdict
   parity at zero) and the no-vec ablation (parity on a real
   violation). *)

let mc_reductions : Modelcheck.Explore.reduction list =
  [ `None; `Dpor; `Dpor_sym; `Dpor_sym_memo ]

let mk_dcas_no_vec_n2 () =
  let m = Machine.create () in
  (m, Baselines.Broken.dcas_no_vec m ~n:2 ~init:(i 0))

let mc_red_factory = function
  | "dcas_n3_uniform_cas" ->
      Some
        ( mk_dcas_n3,
          Array.make 3 [ Spec.cas_op (i 0) (i 1); Spec.cas_op (i 1) (i 2) ] )
  | "dcas_no_vec_n2_cas_race" ->
      Some
        ( mk_dcas_no_vec_n2,
          [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |] )
  | _ -> None

(* (label, switch budget, crash budget) *)
let mc_red_cases =
  [ ("dcas_n3_uniform_cas", 2, 0); ("dcas_no_vec_n2_cas_race", 2, 1) ]

(* all four modes of one case; enforces verdict parity in-process so a
   parity break can never even be recorded as a baseline.  Parity is on
   the verdict (does a violation exist), not on the raw count of
   violating executions: a reduced search keeps one representative per
   equivalence class, so it legitimately reaches fewer of the
   equivalent violating interleavings (the recorded per-mode counts are
   still pinned exactly by --compare).  A reduced mode must also never
   do more work than the unreduced one. *)
let mc_red_runs ~label ~switches ~crashes =
  let mk, workloads =
    match mc_red_factory label with
    | Some mw -> mw
    | None -> failwith ("unknown reduction bench case " ^ label)
  in
  let outs =
    List.map
      (fun reduction ->
        Modelcheck.Explore.explore ~mk ~workloads
          {
            Modelcheck.Explore.default_config with
            switch_budget = switches;
            crash_budget = crashes;
            reduction;
          })
      mc_reductions
  in
  let violates (o : Modelcheck.Explore.outcome) =
    o.Modelcheck.Explore.total_violations > 0
  in
  let unreduced = List.hd outs in
  let base = violates unreduced in
  List.iter2
    (fun red o ->
      if violates o <> base then
        failwith
          (Printf.sprintf
             "REDUCTION PARITY DIVERGENCE on %s (%s): %d violations vs %d \
              under none"
             label
             (Modelcheck.Explore.reduction_name red)
             o.Modelcheck.Explore.total_violations
             unreduced.Modelcheck.Explore.total_violations);
      if o.Modelcheck.Explore.executions
         > unreduced.Modelcheck.Explore.executions
      then
        failwith
          (Printf.sprintf
             "REDUCTION BLOWUP on %s (%s): %d executions vs %d under none"
             label
             (Modelcheck.Explore.reduction_name red)
             o.Modelcheck.Explore.executions
             unreduced.Modelcheck.Explore.executions))
    mc_reductions outs;
  outs

let mc_red_nodes (o : Modelcheck.Explore.outcome) = o.Modelcheck.Explore.nodes

let mc_red_ratio outs =
  let nodes = List.map mc_red_nodes outs in
  float_of_int (List.hd nodes)
  /. Float.max (float_of_int (List.nth nodes (List.length nodes - 1))) 1.0

let mc_red_run_json red (o : Modelcheck.Explore.outcome) =
  Printf.sprintf
    {|        { "reduction": %S, "nodes": %d, "executions": %d,
          "total_violations": %d, "distinct_shared_configs": %d }|}
    (Modelcheck.Explore.reduction_name red)
    o.Modelcheck.Explore.nodes o.Modelcheck.Explore.executions
    o.Modelcheck.Explore.total_violations
    o.Modelcheck.Explore.distinct_shared_configs

let mc_red_case_json (label, switches, crashes) =
  let outs = mc_red_runs ~label ~switches ~crashes in
  let ratio = mc_red_ratio outs in
  Printf.printf
    "%-24s %s nodes, %.1fx node reduction (none -> dpor+sym-memo)\n%!" label
    (String.concat "/" (List.map (fun o -> string_of_int (mc_red_nodes o)) outs))
    ratio;
  Printf.sprintf
    "    { \"object\": %S, \"switch_budget\": %d, \"crash_budget\": %d,\n\
     \      \"runs\": [\n%s\n      ],\n\
     \      \"node_reduction\": %.2f, \"min_node_reduction\": %.2f }"
    label switches crashes
    (String.concat ",\n" (List.map2 mc_red_run_json mc_reductions outs))
    ratio
    (* the gate is deterministic (node counts are machine-independent)
       but left slack so future reduction work only trips it by
       genuinely regressing, not by re-shaping the tree *)
    (Float.max 1.0 (ratio *. 0.7))

let modelcheck_baseline ~out ~budget =
  let cases =
    List.map
      (fun (label, switches, crashes) ->
        let o = mc_run_case ~label ~switches ~crashes in
        let m = o.Modelcheck.Explore.metrics in
        Printf.printf "%-24s sw=%d cr=%d: %.0f nodes/sec, %.1f bytes/node\n%!"
          label switches crashes m.Modelcheck.Explore.nodes_per_sec
          m.Modelcheck.Explore.bytes_per_node;
        Printf.sprintf
          "    { \"object\": %S, \"switch_budget\": %d, \"crash_budget\": %d,\n\
          \      \"domains\": 1,\n\
          \      \"counters\": { \"executions\": %d, \"truncated\": %d, \
           \"nodes\": %d,\n\
          \        \"total_violations\": %d, \"distinct_shared_configs\": %d },\n\
          \      \"perf\": %s,\n\
          \      \"min_nodes_per_sec\": %.0f, \"max_bytes_per_node\": %.0f }"
          label switches crashes o.Modelcheck.Explore.executions
          o.Modelcheck.Explore.truncated o.Modelcheck.Explore.nodes
          o.Modelcheck.Explore.total_violations
          o.Modelcheck.Explore.distinct_shared_configs (mc_perf_json o)
          (mc_nps_floor label)
          (* keep the ceiling meaningful even for a (nearly)
             allocation-free loop: never below one cache line *)
          (Float.max 64.0
             (m.Modelcheck.Explore.bytes_per_node *. alloc_ceiling_factor)))
      (mc_cases ~budget)
  in
  let red_cases = List.map mc_red_case_json mc_red_cases in
  let doc =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"detectable-modelcheck/v4\",\n\
      \  \"cases\": [\n%s\n  ],\n\
      \  \"reduction_cases\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" cases)
      (String.concat ",\n" red_cases)
  in
  let oc = open_out out in
  output_string oc doc;
  close_out oc;
  Printf.printf
    "modelcheck baseline (%d cases + %d reduction cases) written to %s\n"
    (List.length cases) (List.length red_cases) out

let modelcheck_compare ~j ~file ~tolerance =
  let open Tiny_json in
  let fail_cnt = ref 0 in
  (try
     List.iter
       (fun case ->
         let label = get_str (member "object" case) in
         match mc_factory label with
         | None ->
             incr fail_cnt;
             Printf.printf
               "%-24s UNKNOWN case (renamed/removed?) — regenerate the \
                baseline with --baseline\n"
               label
         | Some _ ->
             let switches = get_int (member "switch_budget" case) in
             let crashes = get_int (member "crash_budget" case) in
             let o = mc_run_case ~label ~switches ~crashes in
             let base = member "counters" case in
             let mismatches =
               List.filter_map
                 (fun (name, got) ->
                   let want = get_int (member name base) in
                   if want = got then None
                   else
                     Some
                       (Printf.sprintf "%s: baseline %d, fresh %d" name want
                          got))
                 [
                   ("executions", o.Modelcheck.Explore.executions);
                   ("truncated", o.Modelcheck.Explore.truncated);
                   ("nodes", o.Modelcheck.Explore.nodes);
                   ("total_violations", o.Modelcheck.Explore.total_violations);
                   ("distinct_shared_configs",
                    o.Modelcheck.Explore.distinct_shared_configs);
                 ]
             in
             let base_nps = get_num (member "nodes_per_sec" (member "perf" case)) in
             let m = o.Modelcheck.Explore.metrics in
             let fresh_nps = m.Modelcheck.Explore.nodes_per_sec in
             let fresh_bpn = m.Modelcheck.Explore.bytes_per_node in
             let nps_floor = get_num (member "min_nodes_per_sec" case) in
             let bpn_ceiling = get_num (member "max_bytes_per_node" case) in
             let ratio = fresh_nps /. Float.max base_nps 1e-9 in
             if mismatches <> [] then begin
               incr fail_cnt;
               Printf.printf "%-24s DETERMINISM MISMATCH\n" label;
               List.iter (Printf.printf "  %s\n") mismatches;
               Printf.printf
                 "  (behavioral change: regenerate the baseline with \
                  --baseline and explain it in the PR)\n"
             end
             else if fresh_bpn > bpn_ceiling then begin
               (* allocation counts are machine-independent: no tolerance *)
               incr fail_cnt;
               Printf.printf
                 "%-24s ALLOC REGRESSION: %.0f bytes/node over the recorded \
                  ceiling %.0f\n"
                 label fresh_bpn bpn_ceiling
             end
             else if fresh_nps *. tolerance < nps_floor then begin
               incr fail_cnt;
               Printf.printf
                 "%-24s THROUGHPUT GATE: %.0f nodes/sec under the recorded \
                  floor %.0f even at tolerance %.0fx\n"
                 label fresh_nps nps_floor tolerance
             end
             else if ratio < 1.0 /. tolerance then begin
               incr fail_cnt;
               Printf.printf
                 "%-24s PERF REGRESSION: %.0f nodes/sec vs baseline %.0f \
                  (%.2fx, tolerance %.0fx)\n"
                 label fresh_nps base_nps ratio tolerance
             end
             else
               Printf.printf
                 "%-24s ok: counters exact, %.0f nodes/sec vs baseline %.0f \
                  (%.2fx), %.1f bytes/node (ceiling %.0f)\n"
                 label fresh_nps base_nps ratio fresh_bpn bpn_ceiling)
       (get_list (member "cases" j));
     (* reduction-ratio cases.  Node counts are machine-independent, so
        every recorded counter must reproduce exactly, and the fresh
        none/dpor+sym-memo node ratio must clear the recorded gate. *)
     List.iter
       (fun case ->
         let label = get_str (member "object" case) in
         let switches = get_int (member "switch_budget" case) in
         let crashes = get_int (member "crash_budget" case) in
         if mc_red_factory label = None then begin
           incr fail_cnt;
           Printf.printf
             "%-24s UNKNOWN reduction case (renamed/removed?) — regenerate \
              the baseline with --baseline\n"
             label
         end
         else
           match mc_red_runs ~label ~switches ~crashes with
           | exception Failure msg ->
               (* in-process parity check tripped on the re-run *)
               incr fail_cnt;
               Printf.printf "%-24s %s\n" label msg
           | outs ->
               let runs = get_list (member "runs" case) in
               if List.length runs <> List.length outs then
                 raise
                   (Tiny_json.Error
                      (Printf.sprintf
                         "%s: %d recorded runs, expected %d reduction modes"
                         label (List.length runs) (List.length outs)));
               let mismatches = ref [] in
               List.iter2
                 (fun run o ->
                   let red = get_str (member "reduction" run) in
                   List.iter
                     (fun (name, got) ->
                       let want = get_int (member name run) in
                       if want <> got then
                         mismatches :=
                           Printf.sprintf "%s %s: baseline %d, fresh %d" red
                             name want got
                           :: !mismatches)
                     [
                       ("nodes", mc_red_nodes o);
                       ("executions", o.Modelcheck.Explore.executions);
                       ("total_violations", o.Modelcheck.Explore.total_violations);
                       ("distinct_shared_configs",
                        o.Modelcheck.Explore.distinct_shared_configs);
                     ])
                 runs outs;
               let ratio = mc_red_ratio outs in
               let gate = get_num (member "min_node_reduction" case) in
               if !mismatches <> [] then begin
                 incr fail_cnt;
                 Printf.printf "%-24s REDUCTION DETERMINISM MISMATCH\n" label;
                 List.iter (Printf.printf "  %s\n") (List.rev !mismatches)
               end
               else if ratio < gate then begin
                 incr fail_cnt;
                 Printf.printf
                   "%-24s REDUCTION REGRESSION: %.2fx node reduction under \
                    the recorded gate %.2fx\n"
                   label ratio gate
               end
               else
                 Printf.printf
                   "%-24s reduction ok: counters exact, %.2fx node reduction \
                    (gate %.2fx)\n"
                   label ratio gate)
       (get_list (member "reduction_cases" j))
   with Tiny_json.Error m ->
     Printf.eprintf "bench --compare: %s: %s\n" file m;
     exit 1);
  if !fail_cnt = 0 then print_endline "modelcheck baseline comparison: ok"
  else begin
    Printf.printf "modelcheck baseline comparison: %d case(s) failed\n"
      !fail_cnt;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Lincheck engine baselines (BENCH_lincheck.json, schema
   detectable-lincheck/v1).

   Two cases, one per way the incremental checker is used:

   - "modelcheck_leaves": the DRW model-check workload is explored twice,
     once per checker engine, with everything else identical.  All
     exploration counters (plus leaf_checks and the total leaf-history
     event count) must be byte-identical — checker-engine equivalence is
     part of the recorded contract — and the speedup is the ratio of
     checker-attributable wall time (batch re-checks every leaf from
     scratch; incremental reuses the frontier of the shared prefix along
     the decision stack).

   - "torture_histories": long random crash histories (> Lin_check.word_ops
     operation instances, so both engines run on chunked bitsets) are
     generated once with the driver, then each is checked from scratch by
     both engines; verdicts — including violation messages — must agree
     history by history.  No prefix sharing here, so this measures the
     engines' raw one-shot cost on deep histories.

   `--compare` reruns both cases at the recorded parameters and diffs:
   counters exactly (any divergence between the engines hard-fails the
   run itself), the fresh speedup against the recorded min_speedup gate,
   and incremental throughput against the baseline within the
   tolerance. *)

(* Recalibrated from 3.0 alongside the allocation-discipline work: (a)
   the leaf-case measurement now settles the heap between engines (see
   lc_run_leaf_case) — previously whichever engine ran second inherited
   the other's major-GC sweep debt inside its checker-time window,
   inflating the recorded ratio; (b) the small-int intern cache speeds
   the batch reference disproportionately, since batch re-interns every
   leaf history from scratch while incremental reuses its frontier.
   Honestly measured, the stable ratio is ~1.9x; 1.5 keeps headroom for
   noise while still failing if frontier reuse stops paying at all. *)
let lc_leaf_gate = 1.5

(* The long-history case has no prefix sharing, so the incremental
   engine's eager frontier closure makes it somewhat slower than batch
   one-shot checking; the case is recorded for verdict parity on > 62-op
   histories and to catch pathological regressions, and its gate only
   guards against the incremental engine collapsing (timings are a few
   ms, so the ratio is noisy). *)
let lc_hist_gate = 0.25

type lc_counters = { l_checks : int; l_events : int; l_violations : int }

type lc_engine_row = {
  l_name : string;
  l_elapsed : float;
  l_pushed : int;
  l_reuse : float;
}

let lc_checks_per_sec c row =
  float_of_int c.l_checks /. Float.max row.l_elapsed 1e-9

(* modelcheck-leaf case: same exploration under both checker engines.
   Slightly longer histories than drw_n2_workload so the per-leaf batch
   re-check has real work to redo. *)
let lc_leaf_workload =
  [|
    [ Spec.write_op (i 1); Spec.read_op ];
    [ Spec.write_op (i 2); Spec.read_op ];
  |]

let lc_run_leaf_case ~switches ~crashes =
  let cfg lin_engine =
    {
      Modelcheck.Explore.default_config with
      switch_budget = switches;
      crash_budget = crashes;
      lin_engine;
    }
  in
  let run eng =
    Modelcheck.Explore.explore ~mk:mk_drw_n2 ~workloads:lc_leaf_workload
      (cfg eng)
  in
  (* Same measurement hygiene as [mc_run_case]: the batch checker churns
     far more garbage than the incremental one (every leaf re-checked
     from scratch), and whichever engine runs while the other's major
     cycles are still being swept pays that debt inside its own
     checker-time window — enough to swing the recorded ratio 2-3x on a
     single-core box.  Settle the heap before each engine and run the
     low-churn incremental engine first. *)
  let settle () =
    Gc.full_major ();
    Gc.full_major ();
    Gc.full_major ()
  in
  settle ();
  let inc = run `Incremental in
  settle ();
  let batch = run `Batch in
  let signature (o : Modelcheck.Explore.outcome) =
    ( o.Modelcheck.Explore.executions,
      o.Modelcheck.Explore.truncated,
      o.Modelcheck.Explore.nodes,
      o.Modelcheck.Explore.total_violations,
      o.Modelcheck.Explore.distinct_shared_configs,
      o.Modelcheck.Explore.metrics.Modelcheck.Explore.leaf_checks,
      o.Modelcheck.Explore.metrics.Modelcheck.Explore.lin_events_total,
      List.map
        (fun (v : Modelcheck.Explore.violation) -> v.Modelcheck.Explore.msg)
        o.Modelcheck.Explore.violations )
  in
  if signature batch <> signature inc then
    failwith
      (Printf.sprintf
         "LIN ENGINE DIVERGENCE on drw_n2_leaf_reuse (sw=%d cr=%d): the \
          batch and incremental checkers disagree on the exploration outcome"
         switches crashes);
  let row eng (o : Modelcheck.Explore.outcome) =
    let m = o.Modelcheck.Explore.metrics in
    {
      l_name = eng;
      l_elapsed = m.Modelcheck.Explore.lin_elapsed_s;
      l_pushed = m.Modelcheck.Explore.lin_events_pushed;
      l_reuse = m.Modelcheck.Explore.lin_reuse_rate;
    }
  in
  let m = batch.Modelcheck.Explore.metrics in
  let counters =
    {
      l_checks = m.Modelcheck.Explore.leaf_checks;
      l_events = m.Modelcheck.Explore.lin_events_total;
      l_violations = batch.Modelcheck.Explore.total_violations;
    }
  in
  (counters, row "batch" batch, row "incremental" inc)

(* torture-history case: long random crash histories, checked one-shot *)
let lc_histories ~trials ~procs ~ops_per_proc ~seed =
  List.init trials (fun index ->
      let prng = Prng.stream seed ~index in
      let wseed =
        Int64.to_int (Int64.shift_right_logical (Prng.next_int64 prng) 2)
      in
      let machine, inst =
        let m = Machine.create () in
        (m, Detectable.Drw.instance (Detectable.Drw.create m ~n:procs ~init:(i 0)))
      in
      let workloads =
        Workload.register (Prng.create wseed) ~procs ~ops_per_proc ~values:3
      in
      let cfg =
        {
          Driver.schedule = Schedule.random (Prng.split prng);
          crash_plan =
            Crash_plan.random ~max_crashes:2 ~prob:0.002 (Prng.split prng);
          policy = Session.Retry;
          max_steps = 1_000_000;
        }
      in
      let res = Driver.run machine inst ~workloads cfg in
      (inst.Obj_inst.spec, res.Driver.history))

let lc_run_hist_case ~trials ~procs ~ops_per_proc ~seed =
  let histories = lc_histories ~trials ~procs ~ops_per_proc ~seed in
  let time_engine eng =
    (* settle so neither engine's window inherits the other's sweep
       debt (see lc_run_leaf_case) *)
    Gc.full_major ();
    Gc.full_major ();
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let verdicts =
      List.map
        (fun (spec, h) -> Lin_check.check_with eng spec h)
        histories
    in
    (Unix.gettimeofday () -. t0, verdicts)
  in
  let b_elapsed, b_verdicts = time_engine `Batch in
  let i_elapsed, i_verdicts = time_engine `Incremental in
  List.iteri
    (fun k (vb, vi) ->
      let tag = function
        | Lin_check.Ok_linearizable _ -> "ok"
        | Lin_check.Violation m -> "violation: " ^ m
      in
      if tag vb <> tag vi then
        failwith
          (Printf.sprintf
             "LIN ENGINE DIVERGENCE on drw_long_histories trial %d: batch %S \
              vs incremental %S"
             k (tag vb) (tag vi)))
    (List.combine b_verdicts i_verdicts);
  let events =
    List.fold_left (fun acc (_, h) -> acc + List.length h) 0 histories
  in
  let violations =
    List.fold_left
      (fun acc v ->
        match v with Lin_check.Violation _ -> acc + 1 | _ -> acc)
      0 b_verdicts
  in
  let counters =
    { l_checks = trials; l_events = events; l_violations = violations }
  in
  let row name elapsed =
    { l_name = name; l_elapsed = elapsed; l_pushed = events; l_reuse = 0.0 }
  in
  (counters, row "batch" b_elapsed, row "incremental" i_elapsed)

let lc_engine_json c row =
  Printf.sprintf
    {|        { "lin_engine": %S, "elapsed_s": %.6f, "checks_per_sec": %.1f,
          "events_pushed": %d, "reuse_rate": %.4f }|}
    row.l_name row.l_elapsed (lc_checks_per_sec c row) row.l_pushed row.l_reuse

let lc_speedup batch inc = batch.l_elapsed /. Float.max inc.l_elapsed 1e-9

let lc_case_json ~label ~kind ~params (c, batch, inc) ~gate =
  let speedup = lc_speedup batch inc in
  Printf.printf
    "%-24s %s: incremental %.2fx over batch (%.4fs vs %.4fs checker time, \
     reuse %.1f%%)\n\
     %!"
    label params speedup batch.l_elapsed inc.l_elapsed (100.0 *. inc.l_reuse);
  Printf.sprintf
    "    { \"object\": %S, \"kind\": %S, %s,\n\
    \      \"counters\": { \"checks\": %d, \"events_total\": %d, \
     \"violations\": %d },\n\
    \      \"engines\": [\n%s,\n%s\n      ],\n\
    \      \"incremental_speedup\": %.2f, \"min_speedup\": %.1f }"
    label kind params c.l_checks c.l_events c.l_violations
    (lc_engine_json c batch) (lc_engine_json c inc) speedup gate

let lincheck_baseline ~out ~budget ~trials =
  let leaf =
    lc_case_json ~label:"drw_n2_leaf_reuse" ~kind:"modelcheck_leaves"
      ~params:(Printf.sprintf "\"switch_budget\": %d, \"crash_budget\": 1" budget)
      (lc_run_leaf_case ~switches:budget ~crashes:1)
      ~gate:lc_leaf_gate
  in
  let hist =
    lc_case_json ~label:"drw_long_histories" ~kind:"torture_histories"
      ~params:
        (Printf.sprintf
           "\"trials\": %d, \"procs\": 3, \"ops_per_proc\": 40, \"seed\": 7"
           trials)
      (lc_run_hist_case ~trials ~procs:3 ~ops_per_proc:40 ~seed:7)
      ~gate:lc_hist_gate
  in
  let doc =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"detectable-lincheck/v1\",\n\
      \  \"cases\": [\n%s,\n%s\n  ]\n}\n"
      leaf hist
  in
  let oc = open_out out in
  output_string oc doc;
  close_out oc;
  Printf.printf "lincheck baseline (2 cases, both engines) written to %s\n" out

let lincheck_compare ~j ~file ~tolerance =
  let open Tiny_json in
  let fail_cnt = ref 0 in
  (try
     List.iter
       (fun case ->
         let label = get_str (member "object" case) in
         let rerun =
           match get_str (member "kind" case) with
           | "modelcheck_leaves" ->
               Some
                 (lc_run_leaf_case
                    ~switches:(get_int (member "switch_budget" case))
                    ~crashes:(get_int (member "crash_budget" case)))
           | "torture_histories" ->
               Some
                 (lc_run_hist_case
                    ~trials:(get_int (member "trials" case))
                    ~procs:(get_int (member "procs" case))
                    ~ops_per_proc:(get_int (member "ops_per_proc" case))
                    ~seed:(get_int (member "seed" case)))
           | k ->
               incr fail_cnt;
               Printf.printf
                 "%-24s UNKNOWN kind %S (renamed/removed?) — regenerate the \
                  baseline with --baseline\n"
                 label k;
               None
         in
         match rerun with
         | None -> ()
         | Some (c, batch, inc) ->
             let base = member "counters" case in
             let mismatches =
               List.filter_map
                 (fun (name, want, got) ->
                   if want = got then None
                   else
                     Some
                       (Printf.sprintf "%s: baseline %d, fresh %d" name want
                          got))
                 [
                   ("checks", get_int (member "checks" base), c.l_checks);
                   ("events_total", get_int (member "events_total" base),
                    c.l_events);
                   ("violations", get_int (member "violations" base),
                    c.l_violations);
                 ]
             in
             let base_cps =
               List.fold_left
                 (fun acc e ->
                   if get_str (member "lin_engine" e) = "incremental" then
                     get_num (member "checks_per_sec" e)
                   else acc)
                 0.0
                 (get_list (member "engines" case))
             in
             let fresh_cps = lc_checks_per_sec c inc in
             let min_speedup = get_num (member "min_speedup" case) in
             let speedup = lc_speedup batch inc in
             let ratio = fresh_cps /. Float.max base_cps 1e-9 in
             if mismatches <> [] then begin
               incr fail_cnt;
               Printf.printf "%-24s DETERMINISM MISMATCH\n" label;
               List.iter (Printf.printf "  %s\n") mismatches;
               Printf.printf
                 "  (behavioral change: regenerate the baseline with \
                  --baseline and explain it in the PR)\n"
             end
             else if speedup < min_speedup then begin
               incr fail_cnt;
               Printf.printf
                 "%-24s SPEEDUP REGRESSION: incremental %.2fx over batch \
                  (baseline gate %.1fx, recorded %.2fx)\n"
                 label speedup min_speedup
                 (get_num (member "incremental_speedup" case))
             end
             else if ratio < 1.0 /. tolerance then begin
               incr fail_cnt;
               Printf.printf
                 "%-24s PERF REGRESSION: incremental %.0f checks/sec vs \
                  baseline %.0f (%.2fx, tolerance %.0fx)\n"
                 label fresh_cps base_cps ratio tolerance
             end
             else
               Printf.printf
                 "%-24s ok: counters exact, incremental %.2fx over batch, \
                  %.0f checks/sec vs baseline %.0f (%.2fx)\n"
                 label speedup fresh_cps base_cps ratio)
       (get_list (member "cases" j))
   with Tiny_json.Error m ->
     Printf.eprintf "bench --compare: %s: %s\n" file m;
     exit 1);
  if !fail_cnt = 0 then print_endline "lincheck baseline comparison: ok"
  else begin
    Printf.printf "lincheck baseline comparison: %d case(s) failed\n" !fail_cnt;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Theorem 1 lower-bound experiment (BENCH_lowerbound.json, schema
   detectable-bench/lowerbound-v2; the full story is docs/LOWERBOUND.md).

   The paper's Theorem 1: a detectable CAS object for N processes
   reaches at least 2^(N-1) pairwise non-memory-equivalent
   configurations.  The experiment certifies the bound mechanically:
   the reduced explorer enumerates distinct shared-memory
   configurations of Algorithm 2 (`Dcas`), and every counted
   configuration is a certified lower bound (every configuration was
   either physically reached, or — under the canonical-counting mode —
   is the permutation image of one that was; reduction never adds
   states).

   Two workload shapes, recorded per case:

   - "graded_cas_chains" (N <= 6): process p runs cas(0,1); …;
     cas(p, p+1), so for any subset S of processes there is a schedule
     in which exactly the members of S each perform one successful CAS
     and the configuration C_S is visited.  Subsets of size k cost k-1
     preemptions, so switch budget s exhibits every C_S with
     |S| <= s+1.  Each case runs [`Dpor] and [`None] under the SAME
     node budget: the reduced search completes and certifies the bound
     while from N=5 the unreduced search caps out below it.

   - "uniform_cas_chain" (N >= 7): every process runs the identical
     chain cas(0,1); …; cas(N-1,N) — the uniformity that activates
     [`Dpor_sym_memo]'s orbit-size-weighted canonical counting, whose
     weighted total equals the cardinality of the (permutation-closed)
     budget-limited reachable set.  Each case runs [`Dpor_sym_memo]
     and [`Dpor_sym] under the SAME node budget, chosen between the
     two searches' measured needs: the canonical-memo search completes
     and certifies 2^(N-1), while plain [`Dpor_sym] exhausts the
     budget — and, counting only unweighted orbit representatives,
     stays far below the bound regardless.  That pair of rows is the
     committed evidence that canonical memoisation, not just symmetry
     skipping, is what scales the certificate past N=6.

   N=7/8 cases carry "recheck": false — a full re-run takes minutes,
   so --compare validates their recorded arithmetic (bound value,
   which rows certify, the memo-vs-sym contrast) without re-running;
   regenerate with --baseline to refresh the measurements. *)

let lb_workload ~shape n =
  match shape with
  | `Graded ->
      Array.init n (fun p ->
          List.init (p + 1) (fun k -> Spec.cas_op (i k) (i (k + 1))))
  | `Uniform ->
      Array.init n (fun _ ->
          List.init n (fun k -> Spec.cas_op (i k) (i (k + 1))))

let lb_shape_name = function
  | `Graded -> "graded_cas_chains"
  | `Uniform -> "uniform_cas_chain"

let lb_shape_of_name = function
  | "graded_cas_chains" -> `Graded
  | "uniform_cas_chain" -> `Uniform
  | s -> failwith ("unknown lowerbound workload in baseline: " ^ s)

(* (n, switch budget, shared node budget, workload shape, reductions,
   recheck under --compare); graded budgets are ~20% above the measured
   reduced-search need so the reduced run completes while the unreduced
   run caps out (from N=5); uniform budgets sit BETWEEN the measured
   dpor+sym-memo and dpor+sym needs (6.61M vs 7.21M nodes at N=7,
   17.93M vs 19.48M at N=8) so the memo search completes while
   dpor+sym gets capped.  2..4 are smoke-sized. *)
let lb_cases =
  [
    (2, 1, 10_000, `Graded, [ `Dpor; `None ], true);
    (3, 1, 10_000, `Graded, [ `Dpor; `None ], true);
    (4, 1, 100_000, `Graded, [ `Dpor; `None ], true);
    (5, 2, 1_000_000, `Graded, [ `Dpor; `None ], true);
    (6, 2, 5_000_000, `Graded, [ `Dpor; `None ], true);
    (7, 2, 7_000_000, `Uniform, [ `Dpor_sym_memo; `Dpor_sym ], false);
    (8, 2, 19_000_000, `Uniform, [ `Dpor_sym_memo; `Dpor_sym ], false);
  ]

let lb_run ~n ~switches ~node_budget ~shape reduction =
  let mk () =
    let m = Machine.create () in
    (m, Detectable.Dcas.instance (Detectable.Dcas.create m ~n ~init:(i 0)))
  in
  let cfg =
    {
      Modelcheck.Explore.default_config with
      switch_budget = switches;
      crash_budget = 0;
      max_steps = 50_000;
      node_budget;
      reduction;
    }
  in
  Modelcheck.Explore.explore ~mk ~workloads:(lb_workload ~shape n) cfg

type lb_counters = {
  lb_configs : int;
  lb_nodes : int;
  lb_execs : int;
  lb_capped : bool;
}

let lb_counters (o : Modelcheck.Explore.outcome) =
  {
    lb_configs = o.Modelcheck.Explore.distinct_shared_configs;
    lb_nodes = o.Modelcheck.Explore.nodes;
    lb_execs = o.Modelcheck.Explore.executions;
    lb_capped = o.Modelcheck.Explore.capped;
  }

let lb_run_json ~bound (o : Modelcheck.Explore.outcome) =
  let m = o.Modelcheck.Explore.metrics in
  let c = lb_counters o in
  Printf.sprintf
    {|        { "reduction": %S, "configs": %d, "nodes": %d,
          "executions": %d, "sleep_skips": %d, "sym_skips": %d,
          "source_skips": %d, "canonical_orbits": %d, "capped": %b,
          "meets_bound": %b,
          "elapsed_s": %.6f, "nodes_per_sec": %.1f }|}
    m.Modelcheck.Explore.reduction c.lb_configs c.lb_nodes c.lb_execs
    m.Modelcheck.Explore.sleep_skips m.Modelcheck.Explore.sym_skips
    m.Modelcheck.Explore.source_skips m.Modelcheck.Explore.canonical_orbits
    c.lb_capped
    (c.lb_configs >= bound)
    m.Modelcheck.Explore.elapsed_s m.Modelcheck.Explore.nodes_per_sec

(* [min_n]/[node_cap] exist for the CI smoke: `--lb-min-n 7 --lb-max-n 7
   --lb-node-cap 200000` runs just the N=7 uniform case with its budget
   overridden to something a CI runner finishes in seconds — both runs
   cap out, their counters are partial lower bounds, and json_check
   still validates the file (capped certifying runs are exempt from the
   bound gate; a capped dpor+sym row still counts as miss evidence). *)
let lowerbound_baseline ~out ?(min_n = 2) ?(node_cap = 0) ~max_n () =
  let cases =
    List.filter_map
      (fun (n, switches, node_budget, shape, reds, recheck) ->
        if n > max_n || n < min_n then None
        else begin
          let node_budget =
            if node_cap > 0 then min node_budget node_cap else node_budget
          in
          let bound = 1 lsl (n - 1) in
          let outs =
            List.map (fun red -> lb_run ~n ~switches ~node_budget ~shape red) reds
          in
          List.iter2
            (fun red (o : Modelcheck.Explore.outcome) ->
              let c = lb_counters o in
              Printf.printf
                "lowerbound N=%d sw=%d budget=%d %s: bound %d, %-13s %d \
                 configs (%d nodes%s)\n%!"
                n switches node_budget (lb_shape_name shape) bound
                (Modelcheck.Explore.reduction_name red)
                c.lb_configs c.lb_nodes
                (if c.lb_capped then ", CAPPED" else ""))
            reds outs;
          Some
            (Printf.sprintf
               "    { \"n\": %d, \"switch_budget\": %d, \"node_budget\": %d,\n\
               \      \"workload\": %S, \"recheck\": %b,\n\
               \      \"bound\": %d,\n\
               \      \"runs\": [\n%s\n      ] }"
               n switches node_budget (lb_shape_name shape) recheck bound
               (String.concat ",\n" (List.map (lb_run_json ~bound) outs)))
        end)
      lb_cases
  in
  let doc =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"detectable-bench/lowerbound-v2\",\n\
      \  \"object\": \"dcas\",\n\
      \  \"crash_budget\": 0,\n\
      \  \"cases\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" cases)
  in
  let oc = open_out out in
  output_string oc doc;
  close_out oc;
  Printf.printf "lowerbound baseline (%d cases) written to %s\n"
    (List.length cases) out

(* Which reductions carry the certification obligation: [`Dpor] on the
   graded cases and [`Dpor_sym_memo] on the uniform ones must clear
   2^(N-1) at every N >= 4; [`None] and plain [`Dpor_sym] are committed
   precisely as the rows that fail to. *)
let lb_must_certify = function
  | `Dpor | `Dpor_sym_memo -> true
  | `None | `Dpor_sym -> false

let lowerbound_compare ~j ~file ~tolerance =
  let open Tiny_json in
  let get_bool what v =
    match v with
    | Bool b -> b
    | _ -> failwith (Printf.sprintf "lowerbound compare: %s is not a bool" what)
  in
  let fail_cnt = ref 0 in
  (* the committed memo-vs-sym contrast: once any plain dpor+sym row is
     present, at least one must miss the bound its sibling memo row
     certifies — losing that row silently would gut the evidence *)
  let sym_rows = ref 0 and sym_misses = ref 0 in
  (try
     List.iter
       (fun case ->
         let n = get_int (member "n" case) in
         let switches = get_int (member "switch_budget" case) in
         let node_budget = get_int (member "node_budget" case) in
         let bound = get_int (member "bound" case) in
         (* v1 has a file-wide graded workload and no recheck marker *)
         let shape =
           if mem "workload" case then
             lb_shape_of_name (get_str (member "workload" case))
           else `Graded
         in
         let recheck =
           if mem "recheck" case then get_bool "recheck" (member "recheck" case)
           else true
         in
         if bound <> 1 lsl (n - 1) then begin
           incr fail_cnt;
           Printf.printf "lowerbound N=%d: recorded bound %d is not 2^(N-1)\n"
             n bound
         end;
         List.iter
           (fun run ->
             let red =
               match get_str (member "reduction" run) with
               | "none" -> `None
               | "dpor" -> `Dpor
               | "dpor+sym" -> `Dpor_sym
               | "dpor+sym-memo" -> `Dpor_sym_memo
               | s -> failwith ("unknown reduction in baseline: " ^ s)
             in
             let label =
               Printf.sprintf "lowerbound N=%d %s" n
                 (Modelcheck.Explore.reduction_name red)
             in
             let rec_configs = get_int (member "configs" run) in
             let rec_capped = get_bool "capped" (member "capped" run) in
             let rec_meets = get_bool "meets_bound" (member "meets_bound" run) in
             if red = `Dpor_sym then begin
               incr sym_rows;
               if rec_configs < bound then incr sym_misses
             end;
             if rec_meets <> (rec_configs >= bound) then begin
               incr fail_cnt;
               Printf.printf
                 "%-30s RECORD INCONSISTENT: meets_bound %b but %d configs \
                  vs bound %d\n"
                 label rec_meets rec_configs bound
             end
             else if not recheck then begin
               (* frozen certificate rows (N >= 7 take minutes to re-run):
                  the arithmetic above plus the certification gate run on
                  the recorded values; --baseline refreshes them *)
               if lb_must_certify red && n >= 4 && rec_configs < bound then begin
                 incr fail_cnt;
                 Printf.printf
                   "%-30s BOUND VIOLATION (recorded): %d configs < 2^(N-1) = \
                    %d\n"
                   label rec_configs bound
               end
               else
                 Printf.printf
                   "%-30s recorded: %d configs (bound %d%s)%s — not re-run\n"
                   label rec_configs bound
                   (if rec_meets then ", certified" else ", missed")
                   (if rec_capped then ", capped" else "")
             end
             else begin
               let fresh = lb_run ~n ~switches ~node_budget ~shape red in
               let c = lb_counters fresh in
               let mismatches =
                 List.filter_map
                   (fun (name, want, got) ->
                     if want = got then None
                     else
                       Some
                         (Printf.sprintf "%s: baseline %d, fresh %d" name want
                            got))
                   [
                     ("configs", rec_configs, c.lb_configs);
                     ("nodes", get_int (member "nodes" run), c.lb_nodes);
                     ("executions", get_int (member "executions" run), c.lb_execs);
                   ]
                 @ (if rec_capped = c.lb_capped then []
                    else
                      [
                        Printf.sprintf "capped: baseline %b, fresh %b"
                          rec_capped c.lb_capped;
                      ])
               in
               let base_nps = get_num (member "nodes_per_sec" run) in
               let fresh_nps =
                 fresh.Modelcheck.Explore.metrics
                   .Modelcheck.Explore.nodes_per_sec
               in
               let ratio = fresh_nps /. Float.max base_nps 1e-9 in
               if mismatches <> [] then begin
                 incr fail_cnt;
                 Printf.printf "%-30s DETERMINISM MISMATCH\n" label;
                 List.iter (Printf.printf "  %s\n") mismatches;
                 Printf.printf
                   "  (behavioral change: regenerate the baseline with \
                    --baseline and explain it in the PR)\n"
               end
               else if lb_must_certify red && n >= 4 && c.lb_configs < bound
               then begin
                 (* the acceptance gate: the certifying reduction must clear
                    the Theorem 1 bound at every N >= 4 in the table *)
                 incr fail_cnt;
                 Printf.printf
                   "%-30s BOUND VIOLATION: %d configs < 2^(N-1) = %d\n" label
                   c.lb_configs bound
               end
               else if ratio < 1.0 /. tolerance then begin
                 incr fail_cnt;
                 Printf.printf
                   "%-30s PERF REGRESSION: %.0f nodes/sec vs baseline %.0f \
                    (%.2fx, tolerance %.0fx)\n"
                   label fresh_nps base_nps ratio tolerance
               end
               else
                 Printf.printf
                   "%-30s ok: counters exact, %d configs (bound %d), %.0f \
                    nodes/sec vs baseline %.0f (%.2fx)\n"
                   label c.lb_configs bound fresh_nps base_nps ratio
             end)
           (get_list (member "runs" case)))
       (get_list (member "cases" j));
     if !sym_rows > 0 && !sym_misses = 0 then begin
       incr fail_cnt;
       print_endline
         "lowerbound EVIDENCE MISSING: no committed dpor+sym row misses the \
          bound — the memo-vs-sym contrast is gone; regenerate with \
          --baseline and pick budgets per the lb_cases comment"
     end
   with Tiny_json.Error m | Failure m ->
     Printf.eprintf "bench --compare: %s: %s\n" file m;
     exit 1);
  if !fail_cnt = 0 then print_endline "lowerbound baseline comparison: ok"
  else begin
    Printf.printf "lowerbound baseline comparison: %d case(s) failed\n"
      !fail_cnt;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* entry point: ad-hoc flag scan (no cmdliner dependency here)

   --json [--budget N] [--smoke]   checker-throughput JSON to stdout
                                   (--smoke skips the slow DRW@4 row)
   --baseline [--out FILE] [--trials N] [--seed S] [--domains D]
              [--fault-out FILE] [--fault-trials N]
              [--mc-out FILE] [--mc-budget N]
              [--lin-out FILE] [--lin-budget N] [--lin-trials N]
              [--lb-out FILE] [--lb-max-n N]
                                   writes the torture baseline (--out),
                                   the fault-model matrix baseline
                                   (--fault-out), the modelcheck
                                   baseline (--mc-out), the lincheck
                                   engine baseline (--lin-out) and the
                                   Theorem 1 lower-bound baseline
                                   (--lb-out; --lb-max-n caps the
                                   process-count sweep, e.g. 4 for a
                                   smoke run)
   --lowerbound [--lb-out FILE] [--lb-max-n N]
                                   writes only the lower-bound baseline
   --compare FILE [--tolerance X] [--domains D]
                                   dispatches on the file's "schema"
                                   (torture-v1/v2, fault-v1,
                                   modelcheck/v4, lincheck/v1 or
                                   lowerbound-v1/v2)
   (no flags)                      full experiment + bench suite *)

let flag_value name =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let int_flag name default =
  match flag_value name with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> n
      | _ ->
          Printf.eprintf "bench: %s expects a non-negative integer\n" name;
          exit 2)

let float_flag name default =
  match flag_value name with
  | None -> default
  | Some v -> (
      match float_of_string_opt v with
      | Some f when f > 0.0 -> f
      | _ ->
          Printf.eprintf "bench: %s expects a positive number\n" name;
          exit 2)

let () =
  if Array.exists (( = ) "--json") Sys.argv then
    checker_json ~budget:(int_flag "--budget" 1)
      ~smoke:(Array.exists (( = ) "--smoke") Sys.argv)
  else if Array.exists (( = ) "--baseline") Sys.argv then begin
    torture_baseline
      ~out:(Option.value (flag_value "--out") ~default:"BENCH_torture.json")
      ~trials:(int_flag "--trials" 2_000)
      ~root_seed:(int_flag "--seed" 1)
      ~domains:(int_flag "--domains" 1);
    fault_baseline
      ~out:(Option.value (flag_value "--fault-out") ~default:"BENCH_fault.json")
      ~trials:(int_flag "--fault-trials" 300)
      ~root_seed:(int_flag "--seed" 1)
      ~domains:(int_flag "--domains" 1);
    modelcheck_baseline
      ~out:
        (Option.value (flag_value "--mc-out") ~default:"BENCH_modelcheck.json")
      ~budget:(int_flag "--mc-budget" 4);
    lincheck_baseline
      ~out:(Option.value (flag_value "--lin-out") ~default:"BENCH_lincheck.json")
      ~budget:(int_flag "--lin-budget" 4)
      ~trials:(int_flag "--lin-trials" 30);
    lowerbound_baseline
      ~out:
        (Option.value (flag_value "--lb-out") ~default:"BENCH_lowerbound.json")
      ~min_n:(int_flag "--lb-min-n" 2)
      ~node_cap:(int_flag "--lb-node-cap" 0)
      ~max_n:(int_flag "--lb-max-n" 6) ()
  end
  else if Array.exists (( = ) "--lowerbound") Sys.argv then
    lowerbound_baseline
      ~out:
        (Option.value (flag_value "--lb-out") ~default:"BENCH_lowerbound.json")
      ~min_n:(int_flag "--lb-min-n" 2)
      ~node_cap:(int_flag "--lb-node-cap" 0)
      ~max_n:(int_flag "--lb-max-n" 6) ()
  else if Array.exists (( = ) "--compare") Sys.argv then
    let file =
      match flag_value "--compare" with
      | Some f -> f
      | None ->
          prerr_endline "bench: --compare expects a baseline file";
          exit 2
    in
    let j =
      match Tiny_json.of_file file with
      | j -> j
      | exception Tiny_json.Error m ->
          Printf.eprintf "bench --compare: %s: %s\n" file m;
          exit 1
      | exception Sys_error m ->
          Printf.eprintf "bench --compare: %s\n" m;
          exit 1
    in
    let tolerance = float_flag "--tolerance" 10.0 in
    match Tiny_json.get_str (Tiny_json.member "schema" j) with
    | "detectable-bench/torture-v1" | "detectable-bench/torture-v2" ->
        torture_compare ~j ~file ~tolerance ~domains:(int_flag "--domains" 1)
    | "detectable-bench/fault-v1" ->
        fault_compare ~j ~file ~tolerance ~domains:(int_flag "--domains" 1)
    | "detectable-modelcheck/v4" ->
        modelcheck_compare ~j ~file ~tolerance
    | "detectable-lincheck/v1" -> lincheck_compare ~j ~file ~tolerance
    | "detectable-bench/lowerbound-v1" | "detectable-bench/lowerbound-v2" ->
        lowerbound_compare ~j ~file ~tolerance
    | s ->
        Printf.eprintf "bench --compare: unexpected schema %S\n" s;
        exit 1
    | exception Tiny_json.Error m ->
        Printf.eprintf "bench --compare: %s: %s\n" file m;
        exit 1
  else begin
    Experiments.Registry.run_all ();
    print_newline ();
    Table.print (steps_table ());
    Table.print (drw_scaling_table ());
    run_bechamel ();
    print_endline "done."
  end
