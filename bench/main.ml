(* Benchmark harness: the committed BENCH baselines (`--baseline`) and
   their gate (`--compare`).  The experiment tables, T1's step costs
   included, are `detect_cli exp`'s.  Wall-clock timing lives in the
   rows' timed metrics and in bench/perf. *)

open Dtc_util
open Nvm
open History
open Sched

let i n = Value.Int n
let mk ?capacity name = Objects.mk ?capacity (Objects.find name)

(* ------------------------------------------------------------------ *)
(* Committed baselines: `--baseline SUITE|all [--smoke] [--out FILE]`
   and `--compare FILE`.

   Every BENCH file is one suite's table of Bench_row rows (schema
   detectable-bench/rows-v1, docs/TORTURE.md).  A suite declares its rows
   at full and at smoke size — id, params and gates — and one [run] that
   turns a row's params into exact counters and timed metrics.
   `--baseline` runs the rows and writes the file; `--compare` re-runs a
   file's rows at their recorded params and judges each fresh row against
   the recorded one (Bench_row.check_row), then runs the suite's
   cross-row invariants on the fresh rows (Bench_row.invariants, the
   same ones json_check runs on recorded rows).  Floors and ceilings are
   declared here, per row; `dune build @bench-check` runs the comparison
   against every committed file. *)

let cas a b = Spec.cas_op (i a) (i b)

type suite = {
  name : string;
  full : Bench_row.row list;
  smoke : Bench_row.row list;
  run :
    (string * Tiny_json.t) list ->
    (string * Tiny_json.t) list * (string * float) list;
      (** params -> counters, metrics *)
}

let param k params = Tiny_json.member k (Tiny_json.Obj params)
let p_int k params = Tiny_json.get_int (param k params)
let p_str k params = Tiny_json.get_str (param k params)
let ints kvs = List.map (fun (k, n) -> (k, Tiny_json.Int n)) kvs
let prefixed mode kvs = List.map (fun (k, v) -> (mode ^ "." ^ k, v)) kvs

let reductions params =
  List.map
    (fun name ->
      let name = Tiny_json.get_str name in
      match
        List.find_opt
          (fun r -> Modelcheck.Explore.reduction_name r = name)
          Modelcheck.Explore.reductions
      with
      | Some r -> (name, r)
      | None -> failwith ("unknown reduction " ^ name))
    (Tiny_json.get_list (param "reductions" params))

let explore ~mk ~workloads ?(reduction = `None)
    ?(max_steps = Modelcheck.Explore.default_config.max_steps)
    ?(node_budget = 0) params =
  Modelcheck.Explore.explore ~mk ~workloads
    {
      Modelcheck.Explore.default_config with
      switch_budget = p_int "switch_budget" params;
      crash_budget = p_int "crash_budget" params;
      reduction;
      max_steps;
      node_budget;
    }

(* --- torture ---------------------------------------------------------

   The three mixed-workload campaigns of the paper's objects, and the
   fault-model matrix: the three single-word detectable objects and the
   two broken ablations crossed with every fault model.  Non-atomic
   fault models only bite when a crash can lose volatile state, so those
   rows run the object on a shared-cache machine with a persist after
   every shared access (the Section 6 transformation); atomic rows keep
   the private-cache machine.  Expected (docs/TORTURE.md): Drw, Dcas and
   Dmax survive drop and reorder, the ablations are flagged under every
   model, and torn — outside the paper's per-word-atomic model — also
   tears Dcas's composite words. *)

let torture_run params =
  let label = p_str "object" params in
  (* "<obj>_n3_mix" rows run the catalog object on a narrower value
     domain; every other id is a catalog name spelled with underscores *)
  let name, values =
    match label with
    | "dcas_n3_mix" -> ("dcas", Some 2)
    | "drw_n3_mix" -> ("drw", Some 2)
    | "dqueue_n3_mix" -> ("dqueue", Some 3)
    | o -> (String.map (function '_' -> '-' | c -> c) o, None)
  in
  let obj = Objects.find name in
  let fault =
    match Fault_model.of_string (p_str "fault" params) with
    | Ok f -> f
    | Error m -> failwith m
  in
  let model, persist = Objects.machine_for fault in
  let spec =
    Torture.default_spec_of ~label ~fault
      ~mk:(Objects.mk ~model ~persist ~capacity:64 obj ~n:3)
      ~workloads_of_seed:(fun s ->
        Objects.workloads ?values obj (Prng.create s) ~procs:3 ~ops_per_proc:3)
      ()
  in
  let r =
    Torture.run ~root_seed:(p_int "seed" params) ~trials:(p_int "trials" params)
      ~shrink:false spec
  in
  ( ints
      [
        ("linearized", r.Torture.linearized);
        ("not_linearized", r.Torture.not_linearized);
        ("incomplete", r.Torture.incomplete);
        ("budget_exhausted", r.Torture.budget_exhausted);
        ("engine_faults", r.Torture.engine_faults);
        ("crashes.injected", r.Torture.crashes_injected);
        ("recoveries.returned", r.Torture.rec_returned);
        ("recoveries.fail_verdicts", r.Torture.rec_failed);
        ("steps.total", r.Torture.steps.Torture.d_total);
        ("steps.max", r.Torture.steps.Torture.d_max);
        ("max_shared_bits.max", r.Torture.max_shared_bits.Torture.d_max);
      ],
    [
      ("elapsed_s", r.Torture.elapsed_s);
      ("trials_per_sec", r.Torture.trials_per_sec);
      ("bytes_per_trial", r.Torture.bytes_per_trial);
    ] )

let torture_suite =
  let row ?min ?max ~trials id obj fault =
    Bench_row.spec ?min ?max id
      [
        ("object", Tiny_json.Str obj);
        ("fault", Tiny_json.Str fault);
        ("trials", Tiny_json.Int trials);
        ("seed", Tiny_json.Int 1);
      ]
  in
  (* full-size floors: 1.5x the trials/sec recorded before the
     allocation-discipline overhaul; ceilings: 4x the bytes/trial
     measured after it *)
  let mix ~gated trials =
    List.map
      (fun (obj, floor, ceiling) ->
        if gated then
          row ~trials obj obj "atomic"
            ~min:[ ("trials_per_sec", floor) ]
            ~max:[ ("bytes_per_trial", ceiling) ]
        else row ~trials obj obj "atomic")
      [
        ("dcas_n3_mix", 5472.0, 400749.0);
        ("dqueue_n3_mix", 1798.0, 1424348.0);
        ("drw_n3_mix", 4463.0, 563991.0);
      ]
  in
  let matrix trials =
    List.concat_map
      (fun obj ->
        List.map
          (fun fault ->
            let fault = Fault_model.to_string fault in
            row ~trials (obj ^ "/" ^ fault) obj fault)
          [
            Fault_model.Atomic;
            Fault_model.Drop { keep_prob = 0.7 };
            Fault_model.Torn { granularity = 1 };
            Fault_model.Reorder;
          ])
      [ "drw"; "dcas"; "dmax"; "broken_drw_no_toggle"; "broken_dcas_no_vec" ]
  in
  {
    name = "torture";
    full = mix ~gated:true 2000 @ matrix 300;
    smoke = mix ~gated:false 40 @ matrix 10;
    run = torture_run;
  }

(* --- modelcheck ------------------------------------------------------

   Explorer throughput rows (exact counters, a nodes/sec floor — 1.3x
   the pre-overhaul figure — and a bytes/node ceiling), and reduction
   rows: one config explored under every reduction mode, whose
   per-mode counters pin the node counts and whose invariants
   (Bench_row) hold the verdict parity, the no-blowup rule and the
   "min_node_reduction" ratio.  Two reduction configs: a healthy uniform
   dcas (the canonical-memo mode fully active) and the no-vec ablation
   (parity on a real violation). *)

let modelcheck_object = function
  | "drw_n2_write_read" ->
      (mk "drw" ~n:2, [| [ Spec.write_op (i 1); Spec.read_op ]; [ Spec.write_op (i 2) ] |])
  | "dcas_n3_one_cas_each" -> (mk "dcas" ~n:3, [| [ cas 0 1 ]; [ cas 1 2 ]; [ cas 0 2 ] |])
  | "dcas_n3_uniform_cas" -> (mk "dcas" ~n:3, Array.make 3 [ cas 0 1; cas 1 2 ])
  | "dcas_no_vec_n2_cas_race" ->
      (mk "broken-dcas-no-vec" ~n:2, [| [ cas 0 1 ]; [ cas 1 0 ] |])
  | o -> failwith ("unknown modelcheck object " ^ o)

let modelcheck_run params =
  let mk, workloads = modelcheck_object (p_str "object" params) in
  if List.mem_assoc "reductions" params then
    ( List.concat_map
        (fun (name, reduction) ->
          let o = explore ~mk ~workloads ~reduction params in
          prefixed name
            (ints
               [
                 ("nodes", o.Modelcheck.Explore.nodes);
                 ("executions", o.Modelcheck.Explore.executions);
                 ("total_violations", o.Modelcheck.Explore.total_violations);
                 ("distinct_shared_configs", o.Modelcheck.Explore.distinct_shared_configs);
               ]))
        (reductions params),
      [] )
  else begin
    (* pay off the major-GC debt of earlier rows off the measured clock *)
    Gc.full_major ();
    let o = explore ~mk ~workloads params in
    let m = o.Modelcheck.Explore.metrics in
    ( ints
        [
          ("executions", o.Modelcheck.Explore.executions);
          ("truncated", o.Modelcheck.Explore.truncated);
          ("nodes", o.Modelcheck.Explore.nodes);
          ("total_violations", o.Modelcheck.Explore.total_violations);
          ("distinct_shared_configs", o.Modelcheck.Explore.distinct_shared_configs);
        ],
      [
        ("elapsed_s", m.Modelcheck.Explore.elapsed_s);
        ("nodes_per_sec", m.Modelcheck.Explore.nodes_per_sec);
        ("bytes_per_node", m.Modelcheck.Explore.bytes_per_node);
      ] )
  end

let modelcheck_suite =
  let budgets ~switches ~crashes =
    [ ("switch_budget", Tiny_json.Int switches); ("crash_budget", Tiny_json.Int crashes) ]
  in
  let explorer ?min ?max obj ~switches =
    Bench_row.spec ?min ?max obj
      ((("object", Tiny_json.Str obj) :: budgets ~switches ~crashes:1))
  in
  let reduction_rows =
    List.map
      (fun (obj, crashes, gate) ->
        Bench_row.spec obj
          ((("object", Tiny_json.Str obj) :: budgets ~switches:2 ~crashes)
          @ [
              ( "reductions",
                Tiny_json.List
                  (List.map
                     (fun s -> Tiny_json.Str s)
                     [ "none"; "dpor"; "dpor+sym"; "dpor+sym-memo" ]) );
              ("min_node_reduction", Tiny_json.Num gate);
            ]))
      [ ("dcas_n3_uniform_cas", 0, 11.24); ("dcas_no_vec_n2_cas_race", 1, 2.40) ]
  in
  {
    name = "modelcheck";
    full =
      [
        explorer "drw_n2_write_read" ~switches:4
          ~min:[ ("nodes_per_sec", 393906.0) ]
          ~max:[ ("bytes_per_node", 5130.0) ];
        explorer "dcas_n3_one_cas_each" ~switches:2
          ~min:[ ("nodes_per_sec", 427144.0) ]
          ~max:[ ("bytes_per_node", 4728.0) ];
      ]
      @ reduction_rows;
    smoke =
      [
        explorer "drw_n2_write_read" ~switches:1;
        explorer "dcas_n3_one_cas_each" ~switches:1;
      ]
      @ reduction_rows;
    run = modelcheck_run;
  }

(* --- lincheck --------------------------------------------------------

   The incremental checker, once per way it is used:
   "modelcheck_leaves" explores a DRW workload whose leaves share long
   prefixes (the frontier-reuse case), "torture_histories" checks long
   random crash histories one-shot (beyond Bitset.word_bits operations,
   so on chunked bitsets).  Floors: the committed checks/sec. *)

let lincheck_histories ~trials ~procs ~ops_per_proc ~seed =
  List.init trials (fun index ->
      let prng = Prng.stream seed ~index in
      let wseed = Int64.to_int (Int64.shift_right_logical (Prng.next_int64 prng) 2) in
      let m, inst = mk "drw" ~n:procs () in
      let workloads = Workload.register (Prng.create wseed) ~procs ~ops_per_proc ~values:3 in
      let cfg =
        Driver.seeded_config ~max_steps:1_000_000 ~max_crashes:2
          ~crash_prob:0.002 prng
      in
      (inst.Obj_inst.spec, (Driver.run m inst ~workloads cfg).Driver.history))

let lincheck_run params =
  match p_str "kind" params with
  | "modelcheck_leaves" ->
      let o =
        explore ~mk:(mk "drw" ~n:2)
          ~workloads:
            [|
              [ Spec.write_op (i 1); Spec.read_op ];
              [ Spec.write_op (i 2); Spec.read_op ];
            |]
          params
      in
      let m = o.Modelcheck.Explore.metrics in
      ( ints
          [
            ("checks", m.Modelcheck.Explore.leaf_checks);
            ("events_total", m.Modelcheck.Explore.lin_events_total);
            ("violations", o.Modelcheck.Explore.total_violations);
          ],
        [
          ("elapsed_s", m.Modelcheck.Explore.lin_elapsed_s);
          ("checks_per_sec", m.Modelcheck.Explore.lin_checks_per_sec);
          ("reuse_rate", m.Modelcheck.Explore.lin_reuse_rate);
        ] )
  | "torture_histories" ->
      let trials = p_int "trials" params in
      let histories =
        lincheck_histories ~trials ~procs:(p_int "procs" params)
          ~ops_per_proc:(p_int "ops_per_proc" params) ~seed:(p_int "seed" params)
      in
      let t0 = Unix.gettimeofday () in
      let verdicts =
        List.map (fun (spec, h) -> Lin_check.check_with `Incremental spec h) histories
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      ( ints
          [
            ("checks", trials);
            ( "events_total",
              List.fold_left (fun acc (_, h) -> acc + List.length h) 0 histories );
            ( "violations",
              List.length
                (List.filter
                   (function Lin_check.Violation _ -> true | _ -> false)
                   verdicts) );
          ],
        [
          ("elapsed_s", elapsed);
          ("checks_per_sec", float_of_int trials /. Float.max elapsed 1e-9);
        ] )
  | k -> failwith ("unknown lincheck kind " ^ k)

let lincheck_suite =
  let leaves ?min ~switches () =
    Bench_row.spec ?min "drw_n2_leaf_reuse"
      [
        ("kind", Tiny_json.Str "modelcheck_leaves");
        ("switch_budget", Tiny_json.Int switches);
        ("crash_budget", Tiny_json.Int 1);
      ]
  in
  let histories ?min ~trials () =
    Bench_row.spec ?min "drw_long_histories"
      [
        ("kind", Tiny_json.Str "torture_histories");
        ("trials", Tiny_json.Int trials);
        ("procs", Tiny_json.Int 3);
        ("ops_per_proc", Tiny_json.Int 40);
        ("seed", Tiny_json.Int 7);
      ]
  in
  {
    name = "lincheck";
    full =
      [
        leaves ~switches:4 ~min:[ ("checks_per_sec", 91685.4) ] ();
        histories ~trials:30 ~min:[ ("checks_per_sec", 1066.7) ] ();
      ];
    smoke = [ leaves ~switches:2 (); histories ~trials:4 () ];
    run = lincheck_run;
  }

(* --- lowerbound ------------------------------------------------------

   Theorem 1 (docs/LOWERBOUND.md): a detectable CAS object for N
   processes reaches at least 2^(N-1) pairwise non-memory-equivalent
   configurations.  The reduced explorer enumerates the distinct
   shared-memory configurations of Algorithm 2 (Dcas); every counted
   configuration is a certified lower bound.  Each row runs two
   reductions under the SAME node budget:

   - "graded_cas_chains" (N <= 6): process p runs cas(0,1); ...;
     cas(p,p+1), so every subset S of processes has a schedule in which
     exactly S succeed once each.  [dpor] completes and certifies the
     bound; from N = 5 the unreduced search caps out (budgets ~20% above
     the reduced search's measured need).
   - "uniform_cas_chain" (N >= 7): every process runs cas(0,1); ...;
     cas(N-1,N), the uniformity [dpor+sym-memo]'s orbit-weighted
     canonical counting needs.  Budgets sit between the measured needs
     of dpor+sym-memo and dpor+sym (6.61M vs 7.21M nodes at N=7, 17.93M
     vs 19.48M at N=8): the memo search certifies, plain dpor+sym caps
     and stays far below the bound — the committed evidence that
     canonical memoisation, not symmetry skipping alone, scales the
     certificate past N=6.  The N=7 row takes about a minute and is
     re-run by --compare (its memo search peaks at 0.40 GB).  The N=8
     row is recheck:false: its memo search alone takes ~140 s at a
     0.78 GB peak, and both reductions would add ~5 min to
     @bench-check.  The smoke set caps N=7 at a few seconds. *)

let lowerbound_run params =
  let n = p_int "n" params in
  let bound = 1 lsl (n - 1) in
  let mk = mk "dcas" ~n in
  let chain k = List.init k (fun j -> cas j (j + 1)) in
  let workloads =
    match p_str "workload" params with
    | "graded_cas_chains" -> Array.init n (fun p -> chain (p + 1))
    | "uniform_cas_chain" -> Array.make n (chain n)
    | w -> failwith ("unknown lowerbound workload " ^ w)
  in
  let runs =
    List.map
      (fun (name, reduction) ->
        let o =
          explore ~mk ~workloads ~reduction ~max_steps:50_000
            ~node_budget:(p_int "node_budget" params)
            (("crash_budget", Tiny_json.Int 0) :: params)
        in
        let m = o.Modelcheck.Explore.metrics in
        let configs = o.Modelcheck.Explore.distinct_shared_configs in
        ( prefixed name
            (ints
               [
                 ("configs", configs);
                 ("nodes", o.Modelcheck.Explore.nodes);
                 ("executions", o.Modelcheck.Explore.executions);
                 ("sleep_skips", m.Modelcheck.Explore.sleep_skips);
                 ("sym_skips", m.Modelcheck.Explore.sym_skips);
                 ("source_skips", m.Modelcheck.Explore.source_skips);
                 ("canonical_orbits", m.Modelcheck.Explore.canonical_orbits);
               ]
            @ [
                ("capped", Tiny_json.Bool o.Modelcheck.Explore.capped);
                ("meets_bound", Tiny_json.Bool (configs >= bound));
              ]),
          prefixed name
            [
              ("elapsed_s", m.Modelcheck.Explore.elapsed_s);
              ("nodes_per_sec", m.Modelcheck.Explore.nodes_per_sec);
            ] ))
      (reductions params)
  in
  ( ("bound", Tiny_json.Int bound) :: List.concat_map fst runs,
    List.concat_map snd runs )

let lowerbound_suite =
  let row ?recheck n switches node_budget workload reds =
    Bench_row.spec ?recheck (Printf.sprintf "n%d" n)
      [
        ("n", Tiny_json.Int n);
        ("switch_budget", Tiny_json.Int switches);
        ("node_budget", Tiny_json.Int node_budget);
        ("workload", Tiny_json.Str workload);
        ("reductions", Tiny_json.List (List.map (fun s -> Tiny_json.Str s) reds));
      ]
  in
  let graded n switches budget = row n switches budget "graded_cas_chains" [ "dpor"; "none" ] in
  let uniform ?recheck n budget =
    row ?recheck n 2 budget "uniform_cas_chain" [ "dpor+sym-memo"; "dpor+sym" ]
  in
  let small = [ graded 2 1 10_000; graded 3 1 10_000; graded 4 1 100_000 ] in
  {
    name = "lowerbound";
    full =
      small
      @ [
          graded 5 2 1_000_000;
          graded 6 2 5_000_000;
          uniform 7 7_000_000;
          uniform ~recheck:false 8 19_000_000;
        ];
    smoke = small @ [ uniform 7 100_000 ];
    run = lowerbound_run;
  }

(* --- baseline / compare ---------------------------------------------- *)

let suites = [ torture_suite; modelcheck_suite; lincheck_suite; lowerbound_suite ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let measure suite (r : Bench_row.row) =
  let counters, metrics = suite.run r.Bench_row.params in
  { r with Bench_row.counters; metrics }

let rates (r : Bench_row.row) =
  String.concat ""
    (List.filter_map
       (fun (k, v) ->
         if String.ends_with ~suffix:"_per_sec" k then
           Some (Printf.sprintf ", %s %.0f" k v)
         else None)
       r.Bench_row.metrics)

(* recheck:false rows are carried over from the file being replaced when
   their id and params still match; delete the row to re-measure it *)
let baseline suite ~smoke ~out =
  let previous =
    match Bench_row.of_json (Tiny_json.of_file out) with
    | name, rows when name = suite.name -> rows
    | _ -> []
    | exception (Tiny_json.Error _ | Sys_error _) -> []
  in
  let rows =
    List.map
      (fun (spec : Bench_row.row) ->
        match
          List.find_opt
            (fun (p : Bench_row.row) ->
              (not spec.recheck) && (not p.recheck) && p.id = spec.id
              && p.params = spec.params)
            previous
        with
        | Some p ->
            Printf.printf "%-28s carried over from %s\n%!" p.id out;
            p
        | None ->
            let r = measure suite spec in
            Printf.printf "%-28s measured%s\n%!" r.id (rates r);
            r)
      (if smoke then suite.smoke else suite.full)
  in
  match Bench_row.invariants suite.name rows with
  | [] ->
      (try
         let oc = open_out out in
         output_string oc (Bench_row.to_json ~suite:suite.name rows);
         close_out oc
       with Sys_error m -> die "bench: %s" m);
      Printf.printf "%s baseline (%d rows) written to %s\n%!" suite.name
        (List.length rows) out
  | failures ->
      List.iter print_endline failures;
      die "bench: %s baseline not written: its invariants fail" suite.name

let compare path =
  let name, recorded =
    try Bench_row.of_json (Tiny_json.of_file path)
    with Tiny_json.Error m | Sys_error m -> die "bench --compare: %s: %s" path m
  in
  let suite = List.find (fun s -> s.name = name) suites in
  let failures = ref 0 in
  let report id msg =
    incr failures;
    Printf.printf "%-28s %s\n%!" id msg
  in
  let fresh =
    List.map
      (fun (r : Bench_row.row) ->
        if not r.recheck then begin
          Printf.printf "%-28s recorded, not re-run\n%!" r.id;
          r
        end
        else
          match measure suite r with
          | exception (Failure m | Invalid_argument m | Tiny_json.Error m) ->
              report r.id ("RUN FAILED: " ^ m);
              r
          | f ->
              (match Bench_row.check_row ~recorded:r ~fresh:f with
              | [] -> Printf.printf "%-28s ok: counters exact%s\n%!" r.id (rates f)
              | fs -> List.iter (report r.id) fs);
              f)
      recorded
  in
  (match Bench_row.invariants name fresh with
  | fs -> List.iter (report name) fs
  | exception Tiny_json.Error m -> report name m);
  if !failures = 0 then Printf.printf "%s baseline comparison: ok\n" name
  else begin
    Printf.printf "%s baseline comparison: %d failure(s)\n" name !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* entry point

   --baseline SUITE|all [--smoke] [--out FILE]
       runs the suite's rows (smoke size with --smoke) and writes
       BENCH_<suite>.json, or FILE; with "all", FILE names the output
       directory (default ".")
   --compare FILE
       re-runs FILE's rows and fails (exit 1) on any gate or invariant *)

let usage () =
  prerr_endline
    "usage: main.exe [--baseline SUITE|all [--smoke] [--out FILE] | --compare \
     FILE]";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--compare"; file ] -> compare file
  | "--baseline" :: which :: rest -> (
      let rec opts smoke out = function
        | [] -> (smoke, out)
        | "--smoke" :: rest -> opts true out rest
        | "--out" :: f :: rest -> opts smoke (Some f) rest
        | _ -> usage ()
      in
      let smoke, out = opts false None rest in
      let file s = "BENCH_" ^ s.name ^ ".json" in
      match which with
      | "all" ->
          let dir = Option.value out ~default:"." in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          List.iter
            (fun s -> baseline s ~smoke ~out:(Filename.concat dir (file s)))
            suites
      | name -> (
          match List.find_opt (fun s -> s.name = name) suites with
          | Some s -> baseline s ~smoke ~out:(Option.value out ~default:(file s))
          | None -> usage ()))
  | _ -> usage ()
