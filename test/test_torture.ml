(* Tests for the deterministic crash-torture engine (lib/torture): the
   determinism contract (merged reports bit-identical whatever order the
   trials ran in), report aggregation sanity, failure capture + schedule
   minimisation on a broken object, and the JSON rendering. *)

open Sched

let dcas_spec ?(policy = Session.Retry) () =
  Torture.default_spec_of ~label:"dcas" ~policy
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

let test_rerun_deterministic () =
  let spec = dcas_spec () in
  let a = Torture.run ~root_seed:7 ~trials:40 spec in
  let b = Torture.run ~root_seed:7 ~trials:40 spec in
  Alcotest.(check string) "same seed, same report"
    (Torture.to_json ~timing:false a)
    (Torture.to_json ~timing:false b);
  let c = Torture.run ~root_seed:8 ~trials:40 spec in
  Alcotest.(check bool) "different seed, different report" true
    (Torture.to_json ~timing:false a <> Torture.to_json ~timing:false c)

let classified (r : Torture.report) =
  r.Torture.linearized + r.Torture.not_linearized + r.Torture.incomplete
  + r.Torture.budget_exhausted + r.Torture.engine_faults

let test_aggregation_sane () =
  let spec = dcas_spec () in
  let r = Torture.run ~root_seed:1 ~trials:50 spec in
  Alcotest.(check int) "every trial classified" 50 (classified r);
  Alcotest.(check int) "correct object: no violations" 0 r.Torture.not_linearized;
  Alcotest.(check bool) "crashes happened at 5% over 50 trials" true
    (r.Torture.crashes_injected > 0);
  Alcotest.(check int) "histogram totals match injected crashes"
    r.Torture.crashes_injected
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Torture.crash_hist);
  Alcotest.(check bool) "steps distribution populated" true
    (r.Torture.steps.Torture.d_min > 0
    && r.Torture.steps.Torture.d_min <= r.Torture.steps.Torture.d_max
    && r.Torture.steps.Torture.d_total >= r.Torture.steps.Torture.d_max);
  Alcotest.(check bool) "space distribution populated" true
    (r.Torture.max_shared_bits.Torture.d_min > 0);
  Alcotest.(check bool) "no failure captured" true
    (r.Torture.first_failure = None)

let test_broken_object_fails_and_shrinks () =
  let r = Torture.run ~root_seed:1 ~trials:60 (broken_spec ()) in
  Alcotest.(check bool) "ablation violates" true (r.Torture.not_linearized > 0);
  match r.Torture.first_failure with
  | None -> Alcotest.fail "no first_failure despite violations"
  | Some f ->
      Alcotest.(check bool) "schedule captured" true (f.Torture.schedule <> []);
      Alcotest.(check bool) "failure message non-empty" true
        (String.length f.Torture.msg > 0);
      (match f.Torture.minimised with
      | Some ds ->
          Alcotest.(check bool) "minimised no longer than schedule" true
            (List.length ds <= List.length f.Torture.schedule);
          (* the minimised prefix must still reproduce under tolerant
             replay — the same contract Shrink promises *)
          let spec = broken_spec () in
          (match
             Modelcheck.Shrink.reproduces ~mk:spec.Torture.mk
               ~workloads:(spec.Torture.workloads_of_seed f.Torture.seed)
               ~policy:spec.Torture.policy
               ~max_steps:spec.Torture.max_steps ds
           with
          | Some _ -> ()
          | None -> Alcotest.fail "minimised schedule does not reproduce")
      | None ->
          (* tolerant replay can fail to reproduce a deeply random
             failure; the raw schedule must then still be reported *)
          ());
      (* first failure must be the lowest failing trial index: rerunning
         that single trial as a 1-trial campaign from the same stream is
         not possible (streams are root-indexed), but the index must be
         within range *)
      Alcotest.(check bool) "trial index in range" true
        (f.Torture.trial >= 0 && f.Torture.trial < 60)

let test_shrink_disabled () =
  let r = Torture.run ~root_seed:1 ~trials:60 ~shrink:false (broken_spec ()) in
  match r.Torture.first_failure with
  | None -> Alcotest.fail "no first_failure despite violations"
  | Some f ->
      Alcotest.(check bool) "no minimisation when disabled" true
        (f.Torture.minimised = None && f.Torture.shrink_attempts = 0)

let test_json_shape () =
  let r = Torture.run ~root_seed:3 ~trials:20 (dcas_spec ()) in
  let j = Torture.to_json r in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun marker ->
      if not (contains j marker) then
        Alcotest.failf "marker %S missing from JSON" marker)
    [
      {|"schema": "detectable-torture/v4"|}; {|"verdicts"|}; {|"recoveries"|};
      {|"crashes"|}; {|"histogram"|}; {|"steps"|}; {|"max_shared_bits"|};
      {|"first_failure"|}; {|"first_engine_fault"|}; {|"timing"|};
      {|"fault": "atomic"|}; {|"watchdog"|}; {|"budget_exhausted"|};
      {|"engine_faults"|}; {|"domains"|}; {|"alloc"|};
      {|"bytes_per_trial"|}; {|"supervision"|}; {|"workers_spawned"|};
      {|"rescues"|}; {|"degradations"|}; {|"inproc_trials"|};
    ];
  (* --no-timing strips timing entirely, supervision included — that is
     the byte-identity surface campaign/chaos/resume runs are compared
     on *)
  let plain = Torture.to_json ~timing:false r in
  Alcotest.(check bool) "timing:false omits the timing block" false
    (contains plain {|"timing"|});
  Alcotest.(check bool) "timing:false omits supervision too" false
    (contains plain {|"supervision"|})

(* The checker engine must be invisible in the merged report: batch and
   incremental campaigns over the same seed produce bit-identical JSON,
   on a clean object and on a violating one (where the parity covers the
   captured failure and its minimised schedule too). *)
let test_lin_engine_parity () =
  let with_engine mkspec lin_engine = { (mkspec ()) with Torture.lin_engine } in
  List.iter
    (fun mkspec ->
      let run e =
        Torture.run ~root_seed:11 ~trials:40 (with_engine mkspec e)
      in
      Alcotest.(check string)
        "batch vs incremental: identical merged reports"
        (Torture.to_json ~timing:false (run `Batch))
        (Torture.to_json ~timing:false (run `Incremental)))
    [ (fun () -> dcas_spec ()); broken_spec ]

let test_give_up_policy_runs () =
  let r = Torture.run ~root_seed:5 ~trials:30 (dcas_spec ~policy:Session.Give_up ()) in
  Alcotest.(check int) "give-up dcas stays correct" 0 r.Torture.not_linearized

(* --- fault models --- *)

let fault_choices =
  [
    Nvm.Fault_model.Atomic;
    Nvm.Fault_model.Drop { keep_prob = 0.7 };
    Nvm.Fault_model.Torn { granularity = 1 };
    Nvm.Fault_model.Reorder;
  ]

(* dcas on the shared-cache machine with persist instrumentation — the
   setup where non-atomic fault models actually lose state *)
let faulted_dcas_spec fault =
  Torture.default_spec_of
    ~label:("dcas+" ^ Nvm.Fault_model.to_string fault)
    ~fault
    ~mk:
      (Test_support.mk_dcas ~persist:true ~model:Runtime.Machine.Shared_cache
         ~n:3)
    ~workloads_of_seed:(fun s ->
      Workload.cas (Dtc_util.Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:2)
    ()

(* the no-vec ablation on the same faulted machine: a violating spec,
   so the first failure is captured and shrunk *)
let faulted_broken_spec fault =
  Torture.default_spec_of
    ~label:("broken-dcas-no-vec+" ^ Nvm.Fault_model.to_string fault)
    ~crash_prob:0.15 ~max_crashes:3 ~fault
    ~mk:(fun () ->
      let m = Runtime.Machine.create ~model:Runtime.Machine.Shared_cache () in
      (m, Baselines.Broken.dcas_no_vec ~persist:true m ~n:3 ~init:(Nvm.Value.Int 0)))
    ~workloads_of_seed:(fun s ->
      Workload.cas (Dtc_util.Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:2)
    ()

(* The determinism contract, for every fault model, on a clean and a
   violating object: trials run one by one in a shuffled index order,
   each on a fresh scratch, then merged, give byte for byte the report
   [Torture.run] gives by running them in ascending order on one reused
   scratch.  So neither the order trials run in (what lets a campaign
   split them over worker processes) nor the scratch a trial inherits
   from the one before it shows in the report. *)
let prop_order_and_scratch_invisible =
  QCheck.Test.make
    ~name:"fault models: shuffled fresh-scratch trials merge = run" ~count:8
    QCheck.(
      quad (int_range 1 1_000_000) (int_range 5 20) (int_range 0 3) bool)
    (fun (seed, trials, fi, broken) ->
      let fault = List.nth fault_choices fi in
      let spec =
        if broken then faulted_broken_spec fault else faulted_dcas_spec fault
      in
      let order = Array.init trials Fun.id in
      Dtc_util.Prng.shuffle (Dtc_util.Prng.create seed) order;
      let by_trial = Array.make trials None in
      Array.iter
        (fun index ->
          by_trial.(index) <-
            Some
              (Torture.run_trial spec ~scratch:(Session.make_scratch ())
                 ~root:seed ~index))
        order;
      let merged =
        Torture.merge spec ~root_seed:seed ~trials ~shrink:true
          (Array.map Option.get by_trial)
      in
      let r = Torture.run ~root_seed:seed ~trials spec in
      r.Torture.domains_used = 1
      && r.Torture.bytes_per_trial > 0.0
      && Torture.to_json ~timing:false merged = Torture.to_json ~timing:false r)

(* Drop loses unpersisted lines an instrumented algorithm never depends
   on, so the paper's detectable CAS survives it by design *)
let test_dcas_survives_drop () =
  let r =
    Torture.run ~root_seed:2 ~trials:100
      (faulted_dcas_spec (Nvm.Fault_model.Drop { keep_prob = 0.5 }))
  in
  Alcotest.(check int) "dcas survives drop" 0 r.Torture.not_linearized;
  Alcotest.(check int) "all classified" 100 (classified r)

(* torn persistence breaks the per-word atomicity the paper's model
   assumes, so it flags even correct composite-word algorithms given
   enough trials — here the ablated CAS, whose recovery guesses from a
   word that can now tear *)
let test_faulted_broken_flagged () =
  let spec = faulted_broken_spec (Nvm.Fault_model.Torn { granularity = 1 }) in
  let r = Torture.run ~root_seed:1 ~trials:150 spec in
  Alcotest.(check bool) "ablation flagged under torn" true
    (r.Torture.not_linearized > 0);
  Alcotest.(check int) "all classified" 150 (classified r);
  match r.Torture.first_failure with
  | None -> Alcotest.fail "no first_failure despite violations"
  | Some f ->
      Alcotest.(check bool) "schedule captured" true (f.Torture.schedule <> [])

(* --- containment --- *)

(* a third-party exception out of object code (anything but the
   Invalid_argument/Failure correctness convention) becomes that trial's
   engine_fault verdict; sibling trials keep running and the campaign
   completes *)
let raising_spec () =
  Torture.default_spec_of ~label:"raising-dcas"
    ~mk:(fun () ->
      let m, inst = Test_support.mk_dcas ~n:3 () in
      let invoke ~pid (op : History.Spec.op) =
        if
          op.History.Spec.name = "cas"
          && Nvm.Value.equal op.History.Spec.args.(0) (Nvm.Value.Int 1)
          && Nvm.Value.equal op.History.Spec.args.(1) (Nvm.Value.Int 1)
        then raise Not_found
        else inst.Obj_inst.invoke ~pid op
      in
      (m, { inst with Obj_inst.invoke }))
    ~workloads_of_seed:(fun s ->
      Workload.cas (Dtc_util.Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:2)
    ()

let test_engine_fault_contained () =
  let r = Torture.run ~root_seed:9 ~trials:40 (raising_spec ()) in
  Alcotest.(check bool) "some trials fault" true (r.Torture.engine_faults > 0);
  Alcotest.(check bool) "sibling trials still complete" true
    (r.Torture.linearized > 0);
  Alcotest.(check int) "campaign completes: all classified" 40 (classified r);
  (match r.Torture.first_engine_fault with
  | None -> Alcotest.fail "no first_engine_fault despite faults"
  | Some ef ->
      Alcotest.(check bool) "fault message names the exception" true
        (String.length ef.Torture.ef_msg > 0));
  (* deterministic like every other verdict *)
  let r' = Torture.run ~root_seed:9 ~trials:40 (raising_spec ()) in
  Alcotest.(check string) "faulting campaigns replay identically"
    (Torture.to_json ~timing:false r)
    (Torture.to_json ~timing:false r')

(* an operation that spins forever is cut by the per-operation watchdog
   into a budget_exhausted verdict instead of hanging the campaign *)
let spinning_spec () =
  Torture.default_spec_of ~label:"spinning" ~watchdog:200
    ~mk:(fun () ->
      let m, inst = Test_support.mk_dcas ~n:3 () in
      let sl = Runtime.Machine.alloc_shared m "SPIN" (Nvm.Value.Int 0) in
      let invoke ~pid:_ _op =
        let rec spin () =
          ignore (Runtime.Fiber.read sl);
          spin ()
        in
        spin ()
      in
      (m, { inst with Obj_inst.invoke }))
    ~workloads_of_seed:(fun s ->
      Workload.cas (Dtc_util.Prng.create s) ~procs:3 ~ops_per_proc:1 ~values:2)
    ()

let test_watchdog_cuts_spinning_object () =
  let r = Torture.run ~root_seed:3 ~trials:4 (spinning_spec ()) in
  Alcotest.(check int) "every trial budget_exhausted" 4
    r.Torture.budget_exhausted;
  Alcotest.(check int) "all classified" 4 (classified r)

(* --- checkpoint / resume --- *)

let with_temp_journal f =
  let path = Filename.temp_file "torture-test" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

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

(* interrupt a campaign (simulated by truncating its journal), resume,
   and require the merged report byte-identical to an uninterrupted
   campaign — on a clean object and on a violating one (covering the
   escape round-trip of recorded failure messages) *)
let test_checkpoint_resume_identity () =
  List.iter
    (fun mkspec ->
      let spec = mkspec () in
      let uninterrupted = Torture.run ~root_seed:21 ~trials:30 spec in
      with_temp_journal (fun path ->
          let journaled =
            Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path spec
          in
          Alcotest.(check string) "journaling does not perturb the report"
            (Torture.to_json ~timing:false uninterrupted)
            (Torture.to_json ~timing:false journaled);
          (* keep the header + the first 11 trial lines: a mid-campaign kill *)
          let lines = read_lines path in
          Alcotest.(check int) "header + one line per trial" 31
            (List.length lines);
          write_lines path (List.filteri (fun i _ -> i < 12) lines);
          let resumed =
            Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path ~resume:true
              spec
          in
          Alcotest.(check string) "resumed = uninterrupted (byte-identical)"
            (Torture.to_json ~timing:false uninterrupted)
            (Torture.to_json ~timing:false resumed);
          (* resuming a complete journal re-runs nothing and still agrees *)
          let noop =
            Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path ~resume:true
              spec
          in
          Alcotest.(check string) "no-op resume agrees"
            (Torture.to_json ~timing:false uninterrupted)
            (Torture.to_json ~timing:false noop)))
    [ (fun () -> dcas_spec ()); broken_spec ]

(* a journal written under different campaign parameters must be
   rejected, field by field *)
let test_checkpoint_header_validated () =
  with_temp_journal (fun path ->
      ignore (Torture.run ~root_seed:21 ~trials:20 ~checkpoint:path (dcas_spec ()));
      let expect_reject what run =
        match run () with
        | (_ : Torture.report) ->
            Alcotest.failf "journal accepted despite %s mismatch" what
        | exception Invalid_argument _ -> ()
      in
      expect_reject "root_seed" (fun () ->
          Torture.run ~root_seed:22 ~trials:20 ~checkpoint:path ~resume:true
            (dcas_spec ()));
      expect_reject "trials" (fun () ->
          Torture.run ~root_seed:21 ~trials:25 ~checkpoint:path ~resume:true
            (dcas_spec ()));
      expect_reject "crash_prob" (fun () ->
          Torture.run ~root_seed:21 ~trials:20 ~checkpoint:path ~resume:true
            (broken_spec ()));
      expect_reject "fault" (fun () ->
          Torture.run ~root_seed:21 ~trials:20 ~checkpoint:path ~resume:true
            (faulted_dcas_spec Nvm.Fault_model.Reorder)))

(* --- journal hardening: duplicates, corruption, torn tails --- *)

let string_contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let has_prefix p l =
  String.length l >= String.length p && String.sub l 0 (String.length p) = p

(* [s] with its first [sub] replaced by [by] *)
let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not found in %S" sub s
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

(* the journal line for trial [i], rewritten to claim index [j] — the
   forgery overlapping worker ranges would produce *)
let reindexed_line lines ~from_i ~to_i =
  let old_p = Printf.sprintf {|{ "i": %d,|} from_i in
  let new_p = Printf.sprintf {|{ "i": %d,|} to_i in
  match List.find_opt (has_prefix old_p) lines with
  | None -> Alcotest.failf "no journal line for trial %d" from_i
  | Some l ->
      new_p
      ^ String.sub l (String.length old_p) (String.length l - String.length old_p)

let expect_invalid what sub run =
  match run () with
  | (_ : Torture.report) -> Alcotest.failf "journal accepted despite %s" what
  | exception Invalid_argument m ->
      if not (string_contains m sub) then
        Alcotest.failf "%s diagnostic %S does not mention %S" what m sub

(* replaying trial lines verbatim (two workers raced on the same range)
   must dedupe idempotently and change nothing *)
let test_checkpoint_duplicates_deduped () =
  let spec = dcas_spec () in
  with_temp_journal (fun path ->
      let full = Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path spec in
      let lines = read_lines path in
      let dups = List.filteri (fun i _ -> i >= 5 && i < 9) lines in
      write_lines path (lines @ dups);
      let resumed =
        Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path ~resume:true spec
      in
      Alcotest.(check string) "identical duplicates are idempotent"
        (Torture.to_json ~timing:false full)
        (Torture.to_json ~timing:false resumed))

(* a header that parses but lacks or mistypes a key is the same named
   "unreadable checkpoint header" error as one that does not parse, and
   the retired v1 schema is a mismatch *)
let test_checkpoint_header_keys_named () =
  let spec = dcas_spec () in
  with_temp_journal (fun path ->
      ignore (Torture.run ~root_seed:21 ~trials:10 ~checkpoint:path spec);
      let header, trials =
        match read_lines path with h :: t -> (h, t) | [] -> Alcotest.fail "empty journal"
      in
      List.iter
        (fun (what, header, sub) ->
          write_lines path (header :: trials);
          expect_invalid what sub (fun () ->
              Torture.run ~root_seed:21 ~trials:10 ~checkpoint:path ~resume:true
                spec))
        [
          ( "a missing key",
            {|{ "schema": "detectable-torture-checkpoint/v2" }|},
            {|unreadable checkpoint header: "object": missing key|} );
          ( "a mistyped key",
            replace_once ~sub:{|"crash_prob": 0.0500|} ~by:{|"crash_prob": "0.05"|} header,
            {|unreadable checkpoint header: "crash_prob": expected a number|} );
          ( "a v1 header",
            replace_once ~sub:"checkpoint/v2" ~by:"checkpoint/v1" header,
            "schema differs" );
        ])

(* a duplicate trial index carrying a different result means overlapping
   worker ranges disagreed — hard error naming both lines *)
let test_checkpoint_conflict_rejected () =
  let spec = dcas_spec () in
  with_temp_journal (fun path ->
      ignore (Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path spec);
      let lines = read_lines path in
      write_lines path (lines @ [ reindexed_line lines ~from_i:4 ~to_i:3 ]);
      expect_invalid "conflicting duplicate" "conflicts" (fun () ->
          Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path ~resume:true
            spec))

let test_checkpoint_out_of_range_rejected () =
  let spec = dcas_spec () in
  with_temp_journal (fun path ->
      ignore (Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path spec);
      let lines = read_lines path in
      write_lines path (lines @ [ reindexed_line lines ~from_i:4 ~to_i:77 ]);
      expect_invalid "out-of-range index" "out of range" (fun () ->
          Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path ~resume:true
            spec))

(* garbage anywhere but the final line is corruption, not a torn tail,
   and the diagnostic names the file line *)
let test_checkpoint_midfile_corruption_rejected () =
  let spec = dcas_spec () in
  with_temp_journal (fun path ->
      ignore (Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path spec);
      let lines = read_lines path in
      write_lines path
        (List.mapi (fun i l -> if i = 10 then "{ \"i\": garbage" else l) lines);
      expect_invalid "mid-file corruption" "line 11" (fun () ->
          Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path ~resume:true
            spec))

(* a writer killed mid-write leaves a torn, newline-less tail: resume
   must tolerate it, heal the file back to a line boundary, and still
   produce the uninterrupted report byte-for-byte *)
let test_checkpoint_torn_tail_healed () =
  let spec = dcas_spec () in
  let uninterrupted = Torture.run ~root_seed:21 ~trials:30 spec in
  with_temp_journal (fun path ->
      ignore (Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path spec);
      let lines = read_lines path in
      let keep = List.filteri (fun i _ -> i < 12) lines in
      let oc = open_out_bin path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        keep;
      output_string oc {|{ "i": 12, "seed": 99|};
      close_out oc;
      let resumed =
        Torture.run ~root_seed:21 ~trials:30 ~checkpoint:path ~resume:true spec
      in
      Alcotest.(check string) "torn tail healed, report byte-identical"
        (Torture.to_json ~timing:false uninterrupted)
        (Torture.to_json ~timing:false resumed);
      (* the heal truncated the torn bytes before appending: every line
         in the final journal parses *)
      List.iteri
        (fun k l ->
          if String.trim l <> "" then
            match Tiny_json.parse l with
            | (_ : Tiny_json.t) -> ()
            | exception Tiny_json.Error m ->
                Alcotest.failf "journal line %d unparseable after heal: %s"
                  (k + 1) m)
        (read_lines path))

(* a journal with no bytes or no complete first line holds no header
   yet: a resume starts it afresh with a header (so a second resume reads
   it back), through both Torture.run and Campaign.run; a blank first
   line with records after it is a named header error *)
let test_checkpoint_headerless_journal () =
  let spec = dcas_spec () in
  let expected =
    Torture.to_json ~timing:false (Torture.run ~root_seed:21 ~trials:10 spec)
  in
  let runners =
    [
      ( "torture",
        fun path ->
          Torture.run ~root_seed:21 ~trials:10 ~checkpoint:path ~resume:true
            spec );
      ( "campaign",
        fun path ->
          fst
            (Test_campaign.run_campaign ~checkpoint:path ~resume:true
               ~config:(Test_campaign.fast ~workers:1 ())
               ~root_seed:21 ~trials:10 spec) );
    ]
  in
  List.iter
    (fun (runner, run) ->
      List.iter
        (fun (what, contents) ->
          with_temp_journal (fun path ->
              Out_channel.with_open_bin path (fun oc ->
                  output_string oc contents);
              let ctx = Printf.sprintf "%s, %s" runner what in
              Alcotest.(check string) (ctx ^ ": fresh run") expected
                (Torture.to_json ~timing:false (run path));
              Alcotest.(check string) (ctx ^ ": resumed") expected
                (Torture.to_json ~timing:false (run path))))
        [ ("no bytes", ""); ("torn header", {|{ "schema": "detectable-tor|}) ];
      with_temp_journal (fun path ->
          ignore (Torture.run ~root_seed:21 ~trials:10 ~checkpoint:path spec);
          write_lines path ("" :: List.tl (read_lines path));
          expect_invalid (runner ^ ", a blank first line")
            "unreadable checkpoint header" (fun () -> run path)))
    runners

(* --- cooperative interruption --- *)

(* a should_stop that trips mid-campaign must raise Interrupted with the
   journaled progress, and a resume must finish the campaign
   byte-identically — the SIGINT/SIGTERM contract of detect_cli *)
let test_should_stop_interrupts_and_resumes () =
  let spec = dcas_spec () in
  let uninterrupted = Torture.run ~root_seed:33 ~trials:40 spec in
  with_temp_journal (fun path ->
      let calls = Atomic.make 0 in
      let should_stop () = Atomic.fetch_and_add calls 1 >= 12 in
      (match
         Torture.run ~root_seed:33 ~trials:40 ~checkpoint:path
           ~should_stop spec
       with
      | (_ : Torture.report) ->
          Alcotest.fail "campaign completed despite should_stop"
      | exception Torture.Interrupted { completed; total } ->
          Alcotest.(check int) "total carried" 40 total;
          Alcotest.(check bool) "partial progress journaled" true
            (completed > 0 && completed < 40));
      let resumed =
        Torture.run ~root_seed:33 ~trials:40 ~checkpoint:path ~resume:true spec
      in
      Alcotest.(check string) "resume after interrupt = uninterrupted"
        (Torture.to_json ~timing:false uninterrupted)
        (Torture.to_json ~timing:false resumed))

(* --- total parsers: Tiny_json.parse fails only with Tiny_json.Error --- *)

(* the first violating trial of the broken-object campaign seeded
   [root], with its index *)
let first_violation_of root =
  let spec = broken_spec () in
  let scratch = Session.make_scratch () in
  let rec find index =
    let tr = Torture.run_trial spec ~scratch ~root ~index in
    match tr.Torture.t_verdict with
    | Torture.V_violation _ -> (index, tr)
    | _ -> find (index + 1)
  in
  find 0

let first_violation = lazy (first_violation_of 3)

(* that trial as a journal line: every JSON shape the journal uses
   (strings with escapes, nested lists, 63-bit ints) in one real
   record *)
let violating_line =
  lazy
    (let i, tr = Lazy.force first_violation in
     Torture.trial_line i tr)

let parses_or_errs s =
  match Tiny_json.parse s with
  | (_ : Tiny_json.t) -> true
  | exception Tiny_json.Error _ -> true

let test_json_prefixes_total () =
  let line = Lazy.force violating_line in
  for k = 0 to String.length line do
    if not (parses_or_errs (String.sub line 0 k)) then
      Alcotest.failf "prefix of length %d escaped" k
  done;
  Alcotest.(check bool) "100k nested [" true
    (parses_or_errs (String.make 100_000 '['))

(* any byte, weighted towards JSON's own punctuation and lexeme starts *)
let json_char =
  QCheck.Gen.(
    oneof [ char; oneofl (List.of_seq (String.to_seq "{}[]\\\",:-+.eE019tfnu ")) ])

let prop_json_random_total =
  QCheck.Test.make ~name:"Tiny_json.parse: random strings fail only with Error"
    ~count:2000
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(string_size ~gen:json_char (int_bound 40)))
    parses_or_errs

let prop_json_garbled_total =
  QCheck.Test.make
    ~name:"Tiny_json.parse: a trial line with 1-3 bytes replaced fails only with Error"
    ~count:2000
    QCheck.(
      make
        ~print:(fun subs ->
          String.concat "; "
            (List.map (fun (pos, c) -> Printf.sprintf "%d:%C" pos c) subs))
        Gen.(list_size (int_range 1 3) (pair nat char)))
    (fun subs ->
      let b = Bytes.of_string (Lazy.force violating_line) in
      List.iter
        (fun (pos, c) -> Bytes.set b (pos mod Bytes.length b) c)
        subs;
      parses_or_errs (Bytes.to_string b))

(* --- trace retention: only a failing trial keeps its schedule --- *)

(* an ok trial carries no trace; the first violation keeps one that
   accounts for every step and crash the trial ran, and its journal line
   decodes back to the same record.  An ok line that still holds a trace
   (a journal written before ok trials dropped theirs) decodes to the
   record run_trial returns today. *)
let test_trace_kept_only_on_failure () =
  let spec = dcas_spec () in
  let scratch = Session.make_scratch () in
  let ok = ref None in
  for index = 0 to 49 do
    let tr = Torture.run_trial spec ~scratch ~root:1 ~index in
    if tr.Torture.t_verdict = Torture.V_ok then begin
      if tr.t_trace <> [] then Alcotest.failf "ok trial %d kept its trace" index;
      if !ok = None then ok := Some (index, tr)
    end
  done;
  let ok_i, ok_tr =
    match !ok with Some o -> o | None -> Alcotest.fail "no ok dcas trial"
  in
  let i, tr = Lazy.force first_violation in
  let count p = List.length (List.filter p tr.Torture.t_trace) in
  Alcotest.(check int) "#Step = t_steps" tr.t_steps
    (count (function Modelcheck.Explore.Step _ -> true | _ -> false));
  Alcotest.(check int) "#Crash = t_crashes" tr.t_crashes
    (count (( = ) Modelcheck.Explore.Crash));
  Alcotest.(check bool) "the violation crashed" true (tr.t_crashes > 0);
  let decode line = Torture.trial_of_json (Tiny_json.parse line) in
  Alcotest.(check bool) "violating trial_line round-trips" true
    (decode (Torture.trial_line i tr) = (i, tr));
  let ok_line = Torture.trial_line ok_i ok_tr in
  Alcotest.(check bool) "ok line carries an empty trace" true
    (string_contains ok_line {|"trace": [  ]|});
  Alcotest.(check bool) "ok trial_line round-trips" true
    (decode ok_line = (ok_i, ok_tr));
  Alcotest.(check bool) "an old ok line's trace is dropped" true
    (decode
       (replace_once ~sub:{|"trace": [  ]|} ~by:{|"trace": [ "p0", "CRASH" ]|}
          ok_line)
    = (ok_i, ok_tr))

(* --- the checkpoint loader is total --- *)

(* a real journal of the broken campaign seeded [fuzz_root] up to and
   including its first violation: the header, ok lines, the violating
   line with its trace, and a lifecycle event line among them.  Root 21
   violates at trial 2, so the journal is short and a resume that has to
   re-run what a garble lost stays cheap. *)
let fuzz_root = 21
let fuzz_trials = lazy (fst (first_violation_of fuzz_root) + 1)

let fuzz_journal =
  lazy
    (with_temp_journal (fun path ->
         ignore
           (Torture.run ~root_seed:fuzz_root ~trials:(Lazy.force fuzz_trials)
              ~shrink:false ~checkpoint:path (broken_spec ()));
         match read_lines path with
         | header :: first :: rest ->
             if not (string_contains first {|"verdict": "ok"|}) then
               Alcotest.fail "the fuzzed journal starts without an ok line";
             String.concat "\n"
               ((header :: first
                 :: {|{ "event": "spawn", "pid": 7, "lo": 0, "hi": 2, "attempt": 1 }|}
                 :: rest)
               @ [ "" ])
         | _ -> Alcotest.fail "journal has fewer than two lines"))

(* resuming from [contents] yields a report or the loader's named
   [Invalid_argument], never any other exception.  Shrinking is off: it
   runs after the load, behind its own catch-all, and would cost ~15 ms
   a case *)
let resumes_or_names contents =
  with_temp_journal (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      match
        Torture.run ~root_seed:fuzz_root ~trials:(Lazy.force fuzz_trials)
          ~shrink:false ~checkpoint:path ~resume:true (broken_spec ())
      with
      | (_ : Torture.report) -> true
      | exception Invalid_argument m ->
          String.starts_with ~prefix:"Torture.run: " m
          || QCheck.Test.fail_reportf "unnamed Invalid_argument %S" m)

type garble = Truncate of int | Replace of (int * char) list

let prop_checkpoint_loader_total =
  QCheck.Test.make
    ~name:
      "checkpoint loader: a truncated or 1-3 byte garbled journal resumes or \
       fails as Invalid_argument \"Torture.run: ...\""
    ~count:1000
    QCheck.(
      make
        ~print:(function
          | Truncate n -> Printf.sprintf "truncate at %d" n
          | Replace subs ->
              String.concat "; "
                (List.map (fun (pos, c) -> Printf.sprintf "%d:%C" pos c) subs))
        Gen.(
          oneof
            [
              map (fun n -> Truncate n) nat;
              map
                (fun subs -> Replace subs)
                (list_size (int_range 1 3) (pair nat json_char));
            ]))
    (fun g ->
      let j = Lazy.force fuzz_journal in
      let n = String.length j in
      resumes_or_names
        (match g with
        | Truncate k -> String.sub j 0 (k mod (n + 1))
        | Replace subs ->
            let b = Bytes.of_string j in
            List.iter (fun (pos, c) -> Bytes.set b (pos mod n) c) subs;
            Bytes.to_string b))

(* A long in-process campaign keeps no per-value state: after 250
   dqueue trials (the benchmark's dqueue spec) and a full major GC, 1 000
   more trials on another root seed may not grow the live heap by 256 KB.
   Any process-wide cache of the values stored or checked grows by
   megabytes over these trials, so the bound leaves no room for one. *)
let test_live_heap_flat () =
  let spec =
    Torture.default_spec_of ~label:"dqueue"
      ~mk:(fun () ->
        let m = Runtime.Machine.create () in
        ( m,
          Detectable.Dqueue.instance
            (Detectable.Dqueue.create m ~n:3 ~capacity:64) ))
      ~workloads_of_seed:(fun s ->
        Workload.queue (Dtc_util.Prng.create s) ~procs:3 ~ops_per_proc:4
          ~values:3)
      ()
  in
  let live_bytes () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  ignore (Torture.run ~root_seed:1 ~trials:250 spec);
  let before = live_bytes () in
  ignore (Torture.run ~root_seed:2 ~trials:1000 spec);
  let growth = live_bytes () - before in
  if growth >= 256 * 1024 then
    Alcotest.failf "live heap grew by %d bytes over 1000 trials" growth

let suites =
  [
    ( "torture.engine",
      [
        Alcotest.test_case "rerun deterministic, seed-sensitive" `Quick
          test_rerun_deterministic;
        Alcotest.test_case "aggregation sane" `Quick test_aggregation_sane;
        Alcotest.test_case "broken object fails and shrinks" `Quick
          test_broken_object_fails_and_shrinks;
        Alcotest.test_case "shrink disabled" `Quick test_shrink_disabled;
        Alcotest.test_case "json shape" `Quick test_json_shape;
        Alcotest.test_case "give-up policy" `Quick test_give_up_policy_runs;
        Alcotest.test_case "lin engine parity (clean + violating)" `Quick
          test_lin_engine_parity;
        Alcotest.test_case "only a failing trial keeps its trace" `Quick
          test_trace_kept_only_on_failure;
        Alcotest.test_case "live heap flat across trials" `Quick
          test_live_heap_flat;
      ] );
    ( "torture.faults",
      [
        QCheck_alcotest.to_alcotest prop_order_and_scratch_invisible;
        Alcotest.test_case "dcas survives drop" `Quick test_dcas_survives_drop;
        Alcotest.test_case "torn flags the no-vec ablation" `Quick
          test_faulted_broken_flagged;
      ] );
    ( "torture.containment",
      [
        Alcotest.test_case "raising object contained as engine fault" `Quick
          test_engine_fault_contained;
        Alcotest.test_case "watchdog cuts spinning object" `Quick
          test_watchdog_cuts_spinning_object;
      ] );
    ( "torture.checkpoint",
      [
        Alcotest.test_case "interrupt + resume byte-identical" `Quick
          test_checkpoint_resume_identity;
        Alcotest.test_case "mismatched journal header rejected" `Quick
          test_checkpoint_header_validated;
        Alcotest.test_case "header key errors named" `Quick
          test_checkpoint_header_keys_named;
        Alcotest.test_case "identical duplicates deduped" `Quick
          test_checkpoint_duplicates_deduped;
        Alcotest.test_case "conflicting duplicate rejected" `Quick
          test_checkpoint_conflict_rejected;
        Alcotest.test_case "out-of-range index rejected" `Quick
          test_checkpoint_out_of_range_rejected;
        Alcotest.test_case "mid-file corruption rejected" `Quick
          test_checkpoint_midfile_corruption_rejected;
        Alcotest.test_case "torn tail healed on resume" `Quick
          test_checkpoint_torn_tail_healed;
        Alcotest.test_case "headerless journal starts fresh" `Quick
          test_checkpoint_headerless_journal;
        Alcotest.test_case "should_stop interrupts, resume completes" `Quick
          test_should_stop_interrupts_and_resumes;
      ] );
    ( "torture.parsers",
      [
        Alcotest.test_case "every prefix of a trial line parses or errs"
          `Quick test_json_prefixes_total;
        QCheck_alcotest.to_alcotest prop_json_random_total;
        QCheck_alcotest.to_alcotest prop_json_garbled_total;
        QCheck_alcotest.to_alcotest prop_checkpoint_loader_total;
      ] );
  ]
