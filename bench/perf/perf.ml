(* The repository benchmark: five workloads across the torture, campaign
   and explorer engines, end-to-end metrics from an untraced pass and a
   per-layer split from a traced pass.  See README.md.

     perf.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--smoke] [--spec BENCHMARK.json]
     perf.exe --compare BASE.json NEW.json [--spec BENCHMARK.json]

   Every untraced rep, and each traced pass, runs in its own self-exec'd
   child process; the last line of standard output is a JSON summary. *)

let out_dir = "perf-out"

(* ------------------------------------------------------------------ *)
(* child processes *)

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* Run one child and return its result document and its set-up time:
   spawn to the child's [ready_at] stamp.  The child's stdout goes to
   our stderr, so our last stdout line stays the summary. *)
let spawn_child ~tmp args =
  let result = Filename.concat tmp "result.json" in
  let argv =
    Array.of_list
      (Sys.executable_name :: "--child" :: "--result" :: result :: "--tmp" :: tmp
     :: args)
  in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  match wait pid with
  | Unix.WEXITED 0 ->
      let j = Tiny_json.of_file result in
      Sys.remove result;
      Ok (j, Report.field_num "ready_at" j -. t0)
  | _ -> Error "workload process failed"

type pass = {
  attempted : int;
  failed : int;
  errors : string list;
  e2e : (string * float list) list;  (** per metric, its samples *)
  layers : (string * float) list;
}

let failed_pass msg = { attempted = 1; failed = 1; errors = [ msg ]; e2e = []; layers = [] }

let tally_of j =
  let open Tiny_json in
  ( get_int (member "attempted" j),
    get_int (member "failed" j),
    List.map get_str (get_list (member "errors" j)) )

(* The untraced pass: one child process per rep, each set up afresh,
   so every metric, set-up time and VmHWM included, has one sample per
   rep.  With several reps in one process, the first rep's major-GC
   phase set VmHWM for all of them, and it varied by ±14% across seeds. *)
let untraced ~tmp ~seconds ~min_reps args =
  let reps = ref [] in
  Runner.repeat ~seconds ~min_reps (fun rep ->
      reps := spawn_child ~tmp (args @ [ "--rep"; string_of_int rep ]) :: !reps);
  let reps = List.rev !reps in
  match List.find_opt Result.is_error reps with
  | Some (Error e) -> failed_pass e
  | _ ->
      let ok = List.filter_map Result.to_option reps in
      let tallies = List.map (fun (j, _) -> tally_of j) ok in
      let field k = List.map (fun (j, _) -> Report.field_num k j) ok in
      let walls = field "wall" in
      {
        attempted = List.fold_left (fun a (n, _, _) -> a + n) 0 tallies;
        failed = List.fold_left (fun a (_, n, _) -> a + n) 0 tallies;
        errors = List.concat_map (fun (_, _, e) -> e) tallies;
        e2e =
          [
            ("trials_per_s", List.map2 ( /. ) (field "units") walls);
            ("verdict_s", walls);
            ("setup_s", List.map snd ok);
            ("peak_rss_mb", field "peak_rss_mb");
          ];
        layers = [];
      }

(* The traced pass: one child; every declared layer metric the
   workload does not reach reads 0. *)
let traced ~tmp args =
  match spawn_child ~tmp args with
  | Error e -> failed_pass e
  | Ok (j, _) ->
      let attempted, failed, errors = tally_of j in
      let got =
        match Tiny_json.member "layers" j with
        | Obj kv -> List.map (fun (k, v) -> (k, Tiny_json.get_num v)) kv
        | _ -> []
      in
      (* a name missing from the dictionary raises *)
      List.iter (fun (k, _) -> ignore (Metrics.unit_of k)) got;
      let layers =
        List.map
          (fun (k, _, _) -> (k, Option.value ~default:0.0 (List.assoc_opt k got)))
          Metrics.per_layer
      in
      { attempted; failed; errors; e2e = []; layers }

(* ------------------------------------------------------------------ *)
(* output *)

let print_pass name p =
  List.iter
    (fun (m, samples) ->
      let q1, med, q3 = Report.quartiles samples in
      Printf.printf "%-20s %-30s %14.6g %-5s q1 %.6g  q3 %.6g  n %d\n" name m med
        (Metrics.unit_of m) q1 q3 (List.length samples))
    p.e2e;
  List.iter
    (fun (m, v) ->
      Printf.printf "%-20s %-30s %14.6g %s\n" name m v (Metrics.unit_of m))
    p.layers;
  List.iter (fun e -> Printf.printf "%-20s ERROR %s\n" name e) p.errors

let workload_doc p =
  let open Tiny_json in
  Obj
    [
      ("attempted", Int p.attempted);
      ("failed", Int p.failed);
      ("errors", List (List.map (fun e -> Str e) p.errors));
      ( "end_to_end",
        Obj
          (List.map
             (fun (m, samples) ->
               let q1, med, q3 = Report.quartiles samples in
               ( m,
                 Obj
                   [
                     ("unit", Str (Metrics.unit_of m));
                     ("median", Num med);
                     ("q1", Num q1);
                     ("q3", Num q3);
                     ("n", Int (List.length samples));
                     ("samples", Report.num_list samples);
                   ] ))
             p.e2e) );
      ( "per_layer",
        Obj
          (List.map
             (fun (m, v) -> (m, Obj [ ("unit", Str (Metrics.unit_of m)); ("value", Num v) ]))
             p.layers) );
    ]

(* The smoke's declaration check: the names, units and directions this
   program emits are exactly the ones BENCHMARK.json declares. *)
let check_declared ~spec results =
  let open Tiny_json in
  let j = of_file spec in
  let declared key =
    List.map
      (fun m -> (get_str (member "name" m), get_str (member "unit" m), get_str (member "better" m)))
      (get_list (member key j))
  in
  let sorted l = List.sort compare l in
  let errs = ref [] in
  let expect what want got =
    if sorted want <> sorted got then errs := what :: !errs
  in
  expect "end_to_end declarations" (declared "end_to_end") Metrics.end_to_end;
  expect "per_layer declarations" (declared "per_layer") Metrics.per_layer;
  let names l = List.map (fun (n, _, _) -> n) l in
  List.iter
    (fun (w, p) ->
      if p.e2e <> [] then
        expect (w ^ " end-to-end names") (names Metrics.end_to_end) (List.map fst p.e2e);
      if p.layers <> [] then
        expect (w ^ " per-layer names") (names Metrics.per_layer) (List.map fst p.layers))
    results;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* --compare *)

(* One row per workload and end-to-end metric: better, same, worse, or
   unresolved when the spread between runs exceeds the bound.  Exit 1 if
   any row is worse. *)
let compare ~spec base_file new_file =
  let open Tiny_json in
  let bounds =
    List.map
      (fun m -> (get_str (member "name" m), (get_num (member "bound" m), get_str (member "better" m))))
      (get_list (member "end_to_end" (of_file spec)))
  in
  let workloads f = match member "workloads" (of_file f) with Obj kv -> kv | _ -> [] in
  let base = workloads base_file and fresh = workloads new_file in
  Printf.printf "%-20s %-14s %32s %32s %8s %6s  %s\n" "workload" "metric"
    "base median [q1, q3]" "new median [q1, q3]" "change" "bound" "verdict";
  let worse = ref false in
  List.iter
    (fun (w, bw) ->
      match List.assoc_opt w fresh with
      | None -> Printf.printf "%-20s missing from %s\n" w new_file
      | Some nw ->
          List.iter
            (fun (m, (bound, better)) ->
              let stats doc =
                let s = member m (member "end_to_end" doc) in
                ( Report.field_num "median" s, Report.field_num "q1" s,
                  Report.field_num "q3" s, Report.floats_of (member "samples" s) )
              in
              let mb, q1b, q3b, sb = stats bw and mn, q1n, q3n, sn = stats nw in
              let sign = if better = "higher" then 1.0 else -1.0 in
              (* > 0 is an improvement *)
              let change = sign *. (mn -. mb) /. mb in
              let base_spread = (q3b -. q1b) /. mb in
              let spread = Float.max base_spread ((q3n -. q1n) /. mn) in
              let all_better =
                List.for_all (fun n -> List.for_all (fun b -> sign *. (n -. b) > 0.0) sb) sn
              in
              let verdict =
                if all_better then "better"
                else if spread > bound then "unresolved"
                else if change < -.bound then "worse"
                else if change > base_spread then "better"
                else "same"
              in
              if verdict = "worse" then worse := true;
              Printf.printf "%-20s %-14s %14.6g [%.6g, %.6g] %14.6g [%.6g, %.6g] %+7.1f%% %5.0f%%  %s\n"
                w m mb q1b q3b mn q1n q3n (100.0 *. change) (100.0 *. bound) verdict)
            bounds)
    base;
  exit (if !worse then 1 else 0)

(* ------------------------------------------------------------------ *)
(* main *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let () =
  match Array.to_list Sys.argv with
  | [ _; "--campaign-worker"; name; seed; lo; hi; hb; side ] ->
      Runner.campaign_worker ~name ~seed:(int_of_string seed) ~lo:(int_of_string lo)
        ~hi:(int_of_string hi) ~heartbeat_every:(int_of_string hb) ~side;
      exit 0
  | _ -> ()

let () =
  let workloads = ref [] and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref None and out = ref None and smoke = ref false in
  let spec = ref "BENCHMARK.json" and cmp = ref None in
  let child = ref false and rep = ref 0 in
  let result = ref "" and tmp = ref "" and trace_file = ref "" in
  let usage = "perf.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke] | --compare BASE NEW" in
  let args =
    [
      ("--workload", Arg.String (fun w -> workloads := !workloads @ [ w ]), "W run workload W (repeatable; default all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per pass (default 20)");
      ("--trace", Arg.Int (fun t -> trace := Some (t = 1)), "0|1 untraced or traced pass only (default both)");
      ("--out", Arg.String (fun f -> out := Some f), "FILE write the full results document");
      ("--smoke", Arg.Set smoke, " every workload at ~1% size, then check the metric names against --spec");
      ("--spec", Arg.Set_string spec, "FILE the BENCHMARK.json to check names and read bounds from");
      ("--compare", Arg.Tuple (let b = ref "" in [ Arg.Set_string b; Arg.String (fun n -> cmp := Some (!b, n)) ]),
       "BASE NEW compare two results documents");
      ("--child", Arg.Set child, " (internal) run one pass in this process");
      ("--rep", Arg.Set_int rep, "N (internal) run rep N only");
      ("--result", Arg.Set_string result, "FILE (internal)");
      ("--tmp", Arg.Set_string tmp, "DIR (internal)");
      ("--trace-file", Arg.Set_string trace_file, "FILE (internal)");
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !cmp with
  | Some (b, n) -> compare ~spec:!spec b n
  | None when !child ->
      let doc =
        Runner.run ~name:(List.hd !workloads) ~seed:!seed ~seconds:!seconds
          ~trace:(!trace = Some true) ~smoke:!smoke ~rep:!rep ~tmp:!tmp
          ~trace_file:!trace_file
      in
      let oc = open_out !result in
      output_string oc (Report.to_string doc);
      close_out oc
  | None ->
      let names = if !workloads = [] then Cases.names else !workloads in
      List.iter
        (fun w ->
          if not (List.mem w Cases.names) then begin
            prerr_endline ("unknown workload " ^ w ^ "; known: " ^ String.concat ", " Cases.names);
            exit 2
          end)
        names;
      let seconds = if !smoke then 0.0 else !seconds in
      let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
      mkdir_p tmp;
      let passes = match !trace with Some t -> [ t ] | None -> [ false; true ] in
      let results =
        List.map
          (fun w ->
            let common =
              [ "--workload"; w; "--seed"; string_of_int !seed; "--seconds"; string_of_float seconds ]
              @ if !smoke then [ "--smoke" ] else []
            in
            let ps =
              List.map
                (fun traced_pass ->
                  if traced_pass then
                    traced ~tmp
                      (common
                      @ [ "--trace"; "1"; "--trace-file";
                          Filename.concat out_dir ("trace-" ^ w ^ ".jsonl") ])
                  else untraced ~tmp ~seconds ~min_reps:(if !smoke then 1 else 3) common)
                passes
            in
            let p =
              List.fold_left
                (fun a p ->
                  {
                    attempted = a.attempted + p.attempted;
                    failed = a.failed + p.failed;
                    errors = a.errors @ p.errors;
                    e2e = a.e2e @ p.e2e;
                    layers = a.layers @ p.layers;
                  })
                { attempted = 0; failed = 0; errors = []; e2e = []; layers = [] }
                ps
            in
            print_pass w p;
            (w, p))
          names
      in
      (* a failed child can leave its journal or result behind *)
      Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp);
      Sys.rmdir tmp;
      let attempted = List.fold_left (fun a (_, p) -> a + p.attempted) 0 results in
      let failed = List.fold_left (fun a (_, p) -> a + p.failed) 0 results in
      let undeclared = if !smoke then check_declared ~spec:!spec results else [] in
      List.iter (fun e -> Printf.printf "smoke: %s differ from %s\n" e !spec) undeclared;
      (match !out with
      | None -> ()
      | Some f ->
          let oc = open_out f in
          output_string oc
            (Report.to_string
               (Tiny_json.Obj
                  [
                    ("schema", Str "detectable-perf/v1");
                    ("seed", Int !seed);
                    ("seconds", Num seconds);
                    ("nproc", Int (Domain.recommended_domain_count ()));
                    ("ocaml", Str Sys.ocaml_version);
                    ("workloads", Obj (List.map (fun (w, p) -> (w, workload_doc p)) results));
                  ]));
          output_char oc '\n';
          close_out oc);
      let metric w (m, v) =
        ( (if List.length results = 1 then m else w ^ "/" ^ m),
          Tiny_json.Obj [ ("value", Num v); ("unit", Str (Metrics.unit_of m)) ] )
      in
      let metrics =
        List.concat_map
          (fun (w, p) ->
            List.map (fun (m, s) -> metric w (m, Report.median s)) p.e2e
            @ List.map (metric w) p.layers)
          results
      in
      let correct = failed = 0 && undeclared = [] in
      print_endline
        (Report.to_string
           (Tiny_json.Obj
              [
                ("correct", Bool correct);
                ("attempted", Int attempted);
                ("failed", Int failed);
                ("metrics", Obj metrics);
              ]));
      exit (if correct then 0 else 1)
