(* Schema validator for the bench/CLI JSON artefacts, run from the
   tier-1 test alias (and from @bench-check).  Parses the file with the
   dependency-free Tiny_json parser and dispatches on the "schema"
   marker:

   - "detectable-torture/v4"    — one torture run report, as written by
     `detect_cli torture/campaign --json/--report`: the campaign config,
     verdict counters, crash histogram, step and space distributions,
     first failure and first engine fault, and (unless written with
     --no-timing) the timing block with its allocation profile and its
     "supervision" counters (worker spawn/death/hang, retry, in-process
     trials, chaos parameters) — all-zero for a plain single-process
     torture run;
   - "detectable-bench/rows-v1" — a committed BENCH baseline
     (`bench/main.exe --baseline`): one suite's rows, checked by
     Bench_row's reader (every field typed, every gate naming a
     recorded metric, ids unique) and then by the suite's cross-row
     invariants — the same ones `--compare` runs on fresh rows.

   With --chaos-active worker_deaths=D,retries=R,inproc_trials=I (valid
   only for torture reports) the validator additionally requires those
   three supervision counters to equal D, R and I.  A chaos campaign's
   draws are deterministic, so its counters are too; pinning them is
   how the bench chaos gate proves the byte-identity comparison covered
   every failure path (death, respawn, in-process remainder), as often
   as that schedule takes it, rather than a campaign where no worker
   ever died.

   Any other schema is rejected as unknown.  Every failure is one line on
   stderr and exit status 1. *)

open Tiny_json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let require_keys what j keys =
  List.iter
    (fun k -> if not (mem k j) then fail "json_check: %s missing %S" what k)
    keys

let supervision_counter_keys =
  [
    "workers_spawned"; "worker_deaths"; "worker_hangs"; "retries";
    "inproc_trials";
  ]

let check_torture_report j =
  require_keys "torture report" j
    [
      "object"; "root_seed"; "trials"; "config"; "verdicts"; "recoveries";
      "crashes"; "steps"; "max_shared_bits"; "first_failure";
      "first_engine_fault";
    ];
  require_keys "torture config" (member "config" j)
    [ "policy"; "crash_prob"; "max_crashes"; "max_steps"; "fault"; "watchdog" ];
  require_keys "torture verdicts" (member "verdicts" j)
    [
      "linearized"; "not_linearized"; "incomplete"; "budget_exhausted";
      "engine_faults";
    ];
  require_keys "torture recoveries" (member "recoveries" j)
    [ "returned"; "fail_verdicts" ];
  let crashes = member "crashes" j in
  require_keys "torture crashes" crashes
    [ "injected"; "bucket_width"; "histogram" ];
  List.iter
    (fun b -> require_keys "histogram bucket" b [ "from_step"; "count" ])
    (get_list (member "histogram" crashes));
  List.iter
    (fun d -> require_keys d (member d j) [ "min"; "max"; "mean"; "total" ])
    [ "steps"; "max_shared_bits" ];
  (match member "first_failure" j with
  | Null -> ()
  | f ->
      require_keys "first_failure" f
        [ "trial"; "seed"; "msg"; "schedule"; "minimised"; "shrink_attempts" ]);
  (match member "first_engine_fault" j with
  | Null -> ()
  | f -> require_keys "first_engine_fault" f [ "trial"; "seed"; "msg" ]);
  (* reports written with --no-timing drop the whole timing block — that
     is what makes them byte-comparable across torture / campaign /
     chaos / resume runs — so its absence is legal *)
  if mem "timing" j then begin
    let timing = member "timing" j in
    require_keys "torture timing" timing
      [
        "elapsed_s"; "trials_per_sec"; "parallelism"; "alloc"; "supervision";
      ];
    require_keys "torture timing alloc" (member "alloc" timing)
      [ "minor_words"; "promoted_words"; "minor_collections"; "bytes_per_trial" ];
    let s = member "supervision" timing in
    require_keys "timing supervision" s (supervision_counter_keys @ [ "chaos" ]);
    require_keys "supervision chaos" (member "chaos" s) [ "kill"; "hang"; "seed" ]
  end

(* --chaos-active: the report must record exactly the expected
   supervision history (chaos draws are deterministic, so a chaos
   campaign's counters are too) — the teeth of the bench chaos gate *)
let chaos_keys = [ "worker_deaths"; "retries"; "inproc_trials" ]

(* "worker_deaths=D,retries=R,inproc_trials=I", every key once *)
let parse_chaos_expect spec =
  let bad () =
    fail
      "json_check: --chaos-active takes worker_deaths=D,retries=R,inproc_trials=I, \
       not %S"
      spec
  in
  let pairs =
    List.map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] -> (
            match int_of_string_opt v with
            | Some n when n >= 0 -> (k, n)
            | _ -> bad ())
        | _ -> bad ())
      (String.split_on_char ',' spec)
  in
  if List.sort compare (List.map fst pairs) <> List.sort compare chaos_keys then
    bad ();
  pairs

let check_chaos_active expect j =
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
    (fun (k, want) ->
      let got = get_int (member k s) in
      if got <> want then
        fail
          "json_check: --chaos-active expects supervision counter %S = %d, \
           the report has %d"
          k want got)
    expect

let check_rows path j =
  let suite, rows = Bench_row.of_json j in
  match Bench_row.invariants suite rows with
  | [] -> Printf.printf "%s baseline: valid (%d rows)\n" suite (List.length rows)
  | failures ->
      List.iter (fun m -> prerr_endline ("json_check: " ^ path ^ ": " ^ m)) failures;
      exit 1

let () =
  let chaos_expect, path =
    match Array.to_list Sys.argv with
    | [ _; p ] -> (None, p)
    | [ _; "--chaos-active"; e; p ] | [ _; p; "--chaos-active"; e ] ->
        (Some (parse_chaos_expect e), p)
    | _ ->
        fail
          "usage: json_check [--chaos-active \
           worker_deaths=D,retries=R,inproc_trials=I] FILE"
  in
  let chaos_active = chaos_expect <> None in
  try
    let j = of_file path in
    match get_str (member "schema" j) with
    | "detectable-torture/v4" ->
        check_torture_report j;
        Option.iter (fun e -> check_chaos_active e j) chaos_expect;
        print_endline
          (if chaos_active then "torture report: valid, chaos active"
           else "torture report: valid")
    | s when chaos_active ->
        fail "json_check: --chaos-active only applies to torture reports, not %S" s
    | s when s = Bench_row.schema -> check_rows path j
    | s -> fail "json_check: %s: unknown schema %S" path s
  with Error m | Sys_error m -> fail "json_check: %s: %s" path m
