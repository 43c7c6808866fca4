(* The metric dictionary: name, unit and direction of every metric the
   benchmark prints.  BENCHMARK.json declares the same names (and the
   end-to-end bounds); the tier-1 smoke checks that the two agree. *)

let end_to_end =
  [
    ("trials_per_s", "1/s", "higher");
    ("verdict_s", "s", "lower");
    ("setup_s", "s", "lower");
    ("peak_rss_mb", "MB", "lower");
  ]

(* Each per-layer metric is measured at one public boundary; a workload
   that never crosses that boundary reports 0 for it. *)
let per_layer =
  [
    ("core.mk_s", "s", "lower");
    ("core.mk_calls", "count", "lower");
    ("core.mk_bytes_per_trial", "B", "lower");
    ("core.share", "ratio", "lower");
    ("sched.driver_run_s", "s", "lower");
    ("sched.steps", "count", "lower");
    ("sched.crashes", "count", "lower");
    ("sched.ns_per_step", "ns", "lower");
    ("sched.driver_bytes_per_trial", "B", "lower");
    ("sched.share", "ratio", "lower");
    ("history.check_s", "s", "lower");
    ("history.events", "count", "lower");
    ("history.ns_per_event", "ns", "lower");
    ("history.check_bytes_per_trial", "B", "lower");
    ("history.leaf_checks", "count", "lower");
    ("history.lin_s", "s", "lower");
    ("history.lin_reuse_rate", "ratio", "higher");
    ("history.share", "ratio", "lower");
    ("torture.run_trial_s", "s", "lower");
    ("torture.self_s", "s", "lower");
    ("torture.self_share", "ratio", "lower");
    ("torture.merge_s", "s", "lower");
    ("torture.trial_p50_us", "us", "lower");
    ("torture.trial_p999_us", "us", "lower");
    ("torture.trials_timed", "count", "higher");
    ("campaign.workers_spawned", "count", "lower");
    ("campaign.worker_deaths", "count", "lower");
    ("campaign.worker_startup_s", "s", "lower");
    ("campaign.worker_busy_s", "s", "lower");
    ("campaign.supervisor_overhead_s", "s", "lower");
    ("campaign.share", "ratio", "lower");
    ("campaign.journal_bytes", "B", "lower");
    ("modelcheck.nodes", "count", "lower");
    ("modelcheck.executions", "count", "lower");
    ("modelcheck.nodes_per_s", "1/s", "higher");
    ("modelcheck.bytes_per_node", "B", "lower");
    ("modelcheck.dedup_hits", "count", "higher");
    ("modelcheck.sleep_skips", "count", "higher");
    ("modelcheck.sym_skips", "count", "higher");
    ("modelcheck.source_skips", "count", "higher");
    ("modelcheck.canonical_orbits", "count", "lower");
    ("modelcheck.configs", "count", "higher");
    ("modelcheck.non_lin_s", "s", "lower");
    ("modelcheck.share", "ratio", "lower");
    ("nvm.rewound_cells", "count", "lower");
    ("nvm.intern_hit_rate", "ratio", "higher");
    ("trace.coverage", "ratio", "higher");
    ("trace.overhead_pct", "%", "lower");
  ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) (end_to_end @ per_layer) with
  | Some (_, u, _) -> u
  | None -> invalid_arg ("undeclared metric " ^ name)
