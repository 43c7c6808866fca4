open History
open Sched

type spec = {
  label : string;
  mk : unit -> Runtime.Machine.t * Obj_inst.t;
  workloads_of_seed : int -> Spec.op list array;
  policy : Session.policy;
  crash_prob : float;
  max_crashes : int;
  max_steps : int;
  lin_engine : Lin_check.engine;
  fault : Nvm.Fault_model.t;
  watchdog : int;
}

let default_spec_of ?(policy = Session.Retry) ?(crash_prob = 0.05)
    ?(max_crashes = 2) ?(max_steps = 50_000) ?(fault = Nvm.Fault_model.Atomic)
    ?(watchdog = 10_000) ~label ~mk ~workloads_of_seed () =
  Crash_plan.check_prob crash_prob;
  {
    label;
    mk;
    workloads_of_seed;
    policy;
    crash_prob;
    max_crashes;
    max_steps;
    lin_engine = `Incremental;
    fault;
    watchdog;
  }

type dist = { d_min : int; d_max : int; d_mean : float; d_total : int }

type failure = {
  trial : int;
  seed : int;
  msg : string;
  schedule : Modelcheck.Explore.decision list;
  minimised : Modelcheck.Explore.decision list option;
  shrink_attempts : int;
}

type engine_fault = { ef_trial : int; ef_seed : int; ef_msg : string }

type report = {
  label : string;
  root_seed : int;
  trials : int;
  policy : Session.policy;
  crash_prob : float;
  max_crashes : int;
  max_steps : int;
  fault : Nvm.Fault_model.t;
  watchdog : int;
  linearized : int;
  not_linearized : int;
  incomplete : int;
  budget_exhausted : int;
  engine_faults : int;
  crashes_injected : int;
  crash_hist : (int * int) list;
  rec_returned : int;
  rec_failed : int;
  steps : dist;
  max_shared_bits : dist;
  first_failure : failure option;
  first_engine_fault : engine_fault option;
  elapsed_s : float;
  trials_per_sec : float;
  domains_used : int;
  shards_rescued : int;
  alloc_minor_words : float;
  alloc_promoted_words : float;
  alloc_minor_collections : int;
  bytes_per_trial : float;
}

let crash_bucket = 16

(* ------------------------------------------------------------------ *)
(* rendering primitives (also used by the checkpoint journal) *)

let policy_string = function
  | Session.Retry -> "retry"
  | Session.Give_up -> "giveup"

let decision_string = function
  | Modelcheck.Explore.Step pid -> Printf.sprintf "p%d" pid
  | Modelcheck.Explore.Crash -> "CRASH"

let decision_of_string s =
  if s = "CRASH" then Modelcheck.Explore.Crash
  else if String.length s >= 2 && s.[0] = 'p' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some pid -> Modelcheck.Explore.Step pid
    | None -> failwith ("Torture: bad decision " ^ s)
  else failwith ("Torture: bad decision " ^ s)

(* JSON string escaping (checker violation messages and engine-fault
   backtraces are the only free-form strings; keep them valid whatever
   they contain).  Tiny_json.parse inverts this exactly, which the
   checkpoint/resume byte-identity contract relies on. *)
let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let dist_json d =
  Printf.sprintf {|{ "min": %d, "max": %d, "mean": %.4f, "total": %d }|}
    d.d_min d.d_max d.d_mean d.d_total

let schedule_json ds =
  "[ "
  ^ String.concat ", "
      (List.map (fun d -> Printf.sprintf "%S" (decision_string d)) ds)
  ^ " ]"

(* ------------------------------------------------------------------ *)
(* one trial *)

type verdict =
  | V_ok
  | V_violation of string
  | V_incomplete
  | V_budget
  | V_engine_fault of string

type trial = {
  t_seed : int;  (* derived workload seed *)
  t_fault_seed : int;  (* seed of the trial's dedicated fault stream *)
  t_steps : int;
  t_crashes : int;
  t_crash_steps : int list;  (* ascending *)
  t_rec_returned : int;
  t_rec_failed : int;
  t_bits : int;
  t_verdict : verdict;
  t_trace : Modelcheck.Explore.decision list;  (* oldest first *)
}

(* Everything random in a trial — workload, schedule, crash points, and
   (via the fault seed recorded in the crash plan) every crash's
   write-back — derives from [Prng.stream root ~index], so the trial is
   a pure function of (spec, root, index) no matter which domain runs
   it.  For [fault = Atomic] the draws are identical to the historical
   engine, so atomic campaigns reproduce pre-fault-model reports. *)
let run_trial spec ~scratch ~root ~index =
  let prng = Dtc_util.Prng.stream root ~index in
  let wseed =
    Int64.to_int (Int64.shift_right_logical (Dtc_util.Prng.next_int64 prng) 2)
  in
  let workloads = spec.workloads_of_seed wseed in
  let machine, inst = spec.mk () in
  (* record the decision sequence (for Shrink) and the crash points (for
     the histogram) by wrapping the schedule and the crash plan *)
  let trace = ref [] in
  let crash_steps = ref [] in
  let random_sched = Schedule.random (Dtc_util.Prng.split prng) in
  let sched =
    {
      Schedule.choose =
        (fun ~runnable ~step ->
          let pid = random_sched.Schedule.choose ~runnable ~step in
          trace := Modelcheck.Explore.Step pid :: !trace;
          pid);
    }
  in
  let base_plan =
    Crash_plan.faulted ~max_crashes:spec.max_crashes ~fault:spec.fault
      ~prob:spec.crash_prob
      (Dtc_util.Prng.split prng)
  in
  let fault_seed = Crash_plan.fault_seed base_plan in
  let plan =
    {
      base_plan with
      Crash_plan.should_crash =
        (fun ~step ->
          let fire = base_plan.Crash_plan.should_crash ~step in
          if fire then begin
            crash_steps := step :: !crash_steps;
            trace := Modelcheck.Explore.Crash :: !trace
          end;
          fire);
    }
  in
  let cfg =
    {
      Driver.schedule = sched;
      crash_plan = plan;
      policy = spec.policy;
      max_steps = spec.max_steps;
    }
  in
  let finish ~steps ~crashes ~rec_returned ~rec_failed ~verdict =
    {
      t_seed = wseed;
      t_fault_seed = fault_seed;
      t_steps = steps;
      t_crashes = crashes;
      t_crash_steps = List.rev !crash_steps;
      t_rec_returned = rec_returned;
      t_rec_failed = rec_failed;
      t_bits = Nvm.Mem.max_shared_bits (Runtime.Machine.mem machine);
      t_verdict = verdict;
      t_trace = List.rev !trace;
    }
  in
  let trace_steps () =
    List.length
      (List.filter
         (function Modelcheck.Explore.Step _ -> true | _ -> false)
         !trace)
  in
  match
    let res =
      Driver.run ~watchdog:spec.watchdog ~scratch machine inst ~workloads cfg
    in
    let rec_returned, rec_failed =
      List.fold_left
        (fun (r, f) -> function
          | Event.Rec_ret _ -> (r + 1, f)
          | Event.Rec_fail _ -> (r, f + 1)
          | _ -> (r, f))
        (0, 0) res.Driver.history
    in
    let verdict =
      match Driver.check ~lin_engine:spec.lin_engine inst res with
      | Lin_check.Violation msg -> V_violation msg
      | Lin_check.Ok_linearizable _ ->
          if res.Driver.budget_exhausted then V_budget
          else if res.Driver.incomplete then V_incomplete
          else V_ok
    in
    (res, rec_returned, rec_failed, verdict)
  with
  | res, rec_returned, rec_failed, verdict ->
      finish ~steps:res.Driver.steps ~crashes:res.Driver.crashes ~rec_returned
        ~rec_failed ~verdict
  | exception (Invalid_argument msg | Failure msg) ->
      (* an algorithm choked on inconsistent NVM state (possible for the
         deliberately broken variants): a correctness violation, not a
         harness failure — same convention as E6 *)
      finish ~steps:(trace_steps ())
        ~crashes:(List.length !crash_steps)
        ~rec_returned:0 ~rec_failed:0
        ~verdict:(V_violation ("exception: " ^ msg))
  | exception e ->
      (* anything else is a fault of the object under test or the engine
         itself: contain it in this trial's verdict — with the exception
         text and any recorded backtrace — and let the campaign go on *)
      let bt = Printexc.get_backtrace () in
      let msg =
        Printexc.to_string e
        ^ if String.trim bt = "" then "" else "\n" ^ String.trim bt
      in
      finish ~steps:(trace_steps ())
        ~crashes:(List.length !crash_steps)
        ~rec_returned:0 ~rec_failed:0 ~verdict:(V_engine_fault msg)

(* ------------------------------------------------------------------ *)
(* checkpoint journal *)

let checkpoint_schema = "detectable-torture-checkpoint/v2"

let header_line (spec : spec) ~root_seed ~trials =
  Printf.sprintf
    {|{ "schema": %S, "object": "%s", "root_seed": %d, "trials": %d, "policy": %S, "crash_prob": %.4f, "max_crashes": %d, "max_steps": %d, "fault": %S, "watchdog": %d }|}
    checkpoint_schema (escape spec.label) root_seed trials
    (policy_string spec.policy)
    spec.crash_prob spec.max_crashes spec.max_steps
    (Nvm.Fault_model.to_string spec.fault)
    spec.watchdog

let verdict_tag = function
  | V_ok -> "ok"
  | V_violation _ -> "violation"
  | V_incomplete -> "incomplete"
  | V_budget -> "budget_exhausted"
  | V_engine_fault _ -> "engine_fault"

let verdict_msg = function
  | V_violation m | V_engine_fault m -> Some m
  | V_ok | V_incomplete | V_budget -> None

let trial_line i tr =
  Printf.sprintf
    {|{ "i": %d, "seed": %d, "fault_seed": %d, "steps": %d, "crashes": %d, "crash_steps": [ %s ], "rec_returned": %d, "rec_failed": %d, "bits": %d, "verdict": %S%s, "trace": %s }|}
    i tr.t_seed tr.t_fault_seed tr.t_steps tr.t_crashes
    (String.concat ", " (List.map string_of_int tr.t_crash_steps))
    tr.t_rec_returned tr.t_rec_failed tr.t_bits (verdict_tag tr.t_verdict)
    (match verdict_msg tr.t_verdict with
    | None -> ""
    | Some m -> Printf.sprintf {|, "msg": "%s"|} (escape m))
    (schedule_json tr.t_trace)

let trial_of_json j =
  let int k = Tiny_json.get_int (Tiny_json.member k j) in
  let verdict =
    let msg () = Tiny_json.get_str (Tiny_json.member "msg" j) in
    match Tiny_json.get_str (Tiny_json.member "verdict" j) with
    | "ok" -> V_ok
    | "violation" -> V_violation (msg ())
    | "incomplete" -> V_incomplete
    | "budget_exhausted" -> V_budget
    | "engine_fault" -> V_engine_fault (msg ())
    | v -> failwith ("Torture: unknown checkpoint verdict " ^ v)
  in
  ( int "i",
    {
      t_seed = int "seed";
      t_fault_seed = int "fault_seed";
      t_steps = int "steps";
      t_crashes = int "crashes";
      t_crash_steps =
        List.map Tiny_json.get_int
          (Tiny_json.get_list (Tiny_json.member "crash_steps" j));
      t_rec_returned = int "rec_returned";
      t_rec_failed = int "rec_failed";
      t_bits = int "bits";
      t_verdict = verdict;
      t_trace =
        List.map
          (fun d -> decision_of_string (Tiny_json.get_str d))
          (Tiny_json.get_list (Tiny_json.member "trace" j));
    } )

(* A journal's header line and the lines after it, or [None] when it
   holds no header yet and starts afresh: no complete first line (no
   bytes, or a header torn mid-write) or nothing but blank lines.  A
   blank first line with records after it is no header at all. *)
let split_journal contents =
  match String.index_opt contents '\n' with
  | None -> None
  | Some i ->
      let header = String.sub contents 0 i in
      let rest =
        String.split_on_char '\n'
          (String.sub contents (i + 1) (String.length contents - i - 1))
      in
      if String.trim header <> "" then Some (header, rest)
      else if List.for_all (fun l -> String.trim l = "") rest then None
      else
        invalid_arg "Torture.run: unreadable checkpoint header: blank first line"

(* Completed trials recorded in a (possibly interrupted) journal at
   [path], split by [split_journal].  The header must match this
   campaign exactly — resuming under different parameters would silently
   mix incompatible seed streams.  A torn trailing line (the writer died
   mid-write) is ignored; any complete trial line is trusted because
   trials are pure functions of their index.  Supervisor lifecycle
   events are skipped.  A line that is unreadable anywhere but the tail,
   records an out-of-range index, or conflicts with an earlier record of
   the same trial is a hard error naming the line — overlapping shard
   ranges must never silently double-count or mix results. *)
let journaled_trials path (spec : spec) ~root_seed ~trials (header, rest) =
  let unreadable m =
    invalid_arg ("Torture.run: unreadable checkpoint header: " ^ m)
  in
  let h = try Tiny_json.parse header with Tiny_json.Error m -> unreadable m in
  let field get k =
    try get (Tiny_json.member k h)
    with Tiny_json.Error m -> unreadable (Printf.sprintf "%S: %s" k m)
  in
  let str = field Tiny_json.get_str in
  let int = field Tiny_json.get_int in
  let num = field Tiny_json.get_num in
  let mismatch what =
    invalid_arg
      (Printf.sprintf
         "Torture.run: checkpoint %s was written by a different campaign (%s \
          differs)"
         path what)
  in
  let schema = str "schema" in
  if schema <> checkpoint_schema then mismatch "schema";
  if str "object" <> spec.label then mismatch "object";
  if int "root_seed" <> root_seed then mismatch "root_seed";
  if int "trials" <> trials then mismatch "trials";
  if str "policy" <> policy_string spec.policy then mismatch "policy";
  if abs_float (num "crash_prob" -. spec.crash_prob) > 1e-9 then
    mismatch "crash_prob";
  if int "max_crashes" <> spec.max_crashes then mismatch "max_crashes";
  if int "max_steps" <> spec.max_steps then mismatch "max_steps";
  if str "fault" <> Nvm.Fault_model.to_string spec.fault then mismatch "fault";
  if int "watchdog" <> spec.watchdog then mismatch "watchdog";
  (* the header is line 1; line numbers below are file line numbers *)
  let last_content =
    let r = ref 1 in
    List.iteri (fun k l -> if String.trim l <> "" then r := k + 2) rest;
    !r
  in
  let bad lineno what =
    invalid_arg
      (Printf.sprintf "Torture.run: checkpoint %s line %d: %s" path lineno what)
  in
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  List.iteri
    (fun k line ->
      let lineno = k + 2 in
      if String.trim line = "" then ()
      else
        match Tiny_json.parse line with
        | exception Tiny_json.Error m ->
            (* only the final line may be torn — the writer flushes
               line-atomically, so mid-file garbage means real
               corruption, not an interrupted write *)
            if lineno <> last_content then
              bad lineno ("unreadable record (" ^ m ^ ")")
        | j ->
            if Tiny_json.mem "event" j then ()
            else (
              match trial_of_json j with
              | exception _ ->
                  if lineno <> last_content then
                    bad lineno "malformed trial record"
              | i, tr ->
                  if i < 0 || i >= trials then
                    bad lineno
                      (Printf.sprintf "trial index %d out of range [0, %d)" i
                         trials);
                  (match Hashtbl.find_opt seen i with
                  | Some (lineno0, tr0) ->
                      (* identical duplicates are idempotent replays
                         (e.g. two shards raced on the same range) — keep
                         the first; conflicting duplicates mean
                         overlapping shard ranges wrote different results
                         and the journal cannot be trusted *)
                      if tr0 <> tr then
                        bad lineno
                          (Printf.sprintf
                             "trial %d conflicts with the record on line %d \
                              (overlapping shard ranges wrote different \
                              results)"
                             i lineno0)
                  | None ->
                      Hashtbl.add seen i (lineno, tr);
                      acc := (i, tr) :: !acc)))
    rest;
  List.rev !acc

(* The append-only journal stream.  A fresh journal is truncated and
   starts with [header]; a resumed one ([existing] holds its bytes) is
   opened for append after truncating any torn trailing line (a writer
   died mid-write), so the new writes start at a line boundary and the
   journal stays parseable on the next resume.  Every line is flushed
   under the mutex as written, so any domain may write and a crash loses
   at most the line in flight. *)
type journal = { mu : Mutex.t; oc : out_channel }

let journal_write j line =
  Mutex.lock j.mu;
  output_string j.oc line;
  output_char j.oc '\n';
  flush j.oc;
  Mutex.unlock j.mu

let open_journal path ~fresh ~existing ~header =
  let oc =
    if fresh then
      open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path
    else begin
      let keep =
        match String.rindex_opt existing '\n' with Some i -> i + 1 | None -> 0
      in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd keep;
      ignore (Unix.lseek fd keep Unix.SEEK_SET);
      Unix.out_channel_of_descr fd
    end
  in
  let j = { mu = Mutex.create (); oc } in
  if fresh then journal_write j header;
  j

(* ------------------------------------------------------------------ *)
(* merge *)

let dist_of xs =
  match xs with
  | [] -> { d_min = 0; d_max = 0; d_mean = 0.0; d_total = 0 }
  | x :: rest ->
      let mn, mx, total =
        List.fold_left
          (fun (mn, mx, total) v -> (min mn v, max mx v, total + v))
          (x, x, x) rest
      in
      {
        d_min = mn;
        d_max = mx;
        d_mean = float_of_int total /. float_of_int (List.length xs);
        d_total = total;
      }

(* merge in trial-index order: every aggregate below is a fold over
   [ordered], so the report is independent of shard layout — and of
   which trials were preloaded from a checkpoint, rescued from a dead
   domain, or replayed by a respawned worker process *)
let merge (spec : spec) ~root_seed ~trials ~shrink (by_trial : trial array) =
  if Array.length by_trial <> trials then
    invalid_arg "Torture.merge: need exactly one record per trial";
  let ordered = Array.to_list by_trial in
  let linearized = ref 0
  and not_linearized = ref 0
  and incomplete = ref 0
  and budget_exhausted = ref 0
  and engine_faults = ref 0 in
  let crashes_injected = ref 0 in
  let rec_returned = ref 0 and rec_failed = ref 0 in
  let hist = Hashtbl.create 32 in
  List.iter
    (fun tr ->
      (match tr.t_verdict with
      | V_ok -> incr linearized
      | V_violation _ -> incr not_linearized
      | V_incomplete -> incr incomplete
      | V_budget -> incr budget_exhausted
      | V_engine_fault _ -> incr engine_faults);
      crashes_injected := !crashes_injected + tr.t_crashes;
      rec_returned := !rec_returned + tr.t_rec_returned;
      rec_failed := !rec_failed + tr.t_rec_failed;
      List.iter
        (fun s ->
          let b = s / crash_bucket * crash_bucket in
          Hashtbl.replace hist b
            (1 + try Hashtbl.find hist b with Not_found -> 0))
        tr.t_crash_steps)
    ordered;
  let crash_hist =
    Hashtbl.fold (fun b n acc -> (b, n) :: acc) hist [] |> List.sort compare
  in
  let find_first pred =
    let rec go i = function
      | [] -> None
      | tr :: rest -> (
          match pred tr with
          | Some x -> Some (i, tr, x)
          | None -> go (i + 1) rest)
    in
    go 0 ordered
  in
  let first_failure =
    Option.map
      (fun (i, tr, msg) ->
        let minimised, shrink_attempts =
          if not shrink then (None, 0)
          else
            (* replay the failing trial's exact fault stream: crash k of
               a candidate replays wipe stream k of the original run *)
            let wipe =
              match spec.fault with
              | Nvm.Fault_model.Atomic -> Nvm.Fault_model.keep_all
              | f -> Nvm.Fault_model.Seeded (f, tr.t_fault_seed)
            in
            (* tolerant replay of an exception-raising trial can re-raise
               inside the minimiser; losing the minimisation then is fine,
               the raw schedule is still reported *)
            match
              try
                Modelcheck.Shrink.minimise ~mk:spec.mk
                  ~workloads:(spec.workloads_of_seed tr.t_seed)
                  ~policy:spec.policy ~wipe ~max_steps:spec.max_steps
                  tr.t_trace
              with _ -> None
            with
            | Some r ->
                (Some r.Modelcheck.Shrink.decisions, r.Modelcheck.Shrink.attempts)
            | None -> (None, 0)
        in
        {
          trial = i;
          seed = tr.t_seed;
          msg;
          schedule = tr.t_trace;
          minimised;
          shrink_attempts;
        })
      (find_first (function
        | { t_verdict = V_violation msg; _ } -> Some msg
        | _ -> None))
  in
  let first_engine_fault =
    Option.map
      (fun (i, tr, msg) -> { ef_trial = i; ef_seed = tr.t_seed; ef_msg = msg })
      (find_first (function
        | { t_verdict = V_engine_fault msg; _ } -> Some msg
        | _ -> None))
  in
  {
    label = spec.label;
    root_seed;
    trials;
    policy = spec.policy;
    crash_prob = spec.crash_prob;
    max_crashes = spec.max_crashes;
    max_steps = spec.max_steps;
    fault = spec.fault;
    watchdog = spec.watchdog;
    linearized = !linearized;
    not_linearized = !not_linearized;
    incomplete = !incomplete;
    budget_exhausted = !budget_exhausted;
    engine_faults = !engine_faults;
    crashes_injected = !crashes_injected;
    crash_hist;
    rec_returned = !rec_returned;
    rec_failed = !rec_failed;
    steps = dist_of (List.map (fun tr -> tr.t_steps) ordered);
    max_shared_bits = dist_of (List.map (fun tr -> tr.t_bits) ordered);
    first_failure;
    first_engine_fault;
    (* timing is the caller's to measure: merge is pure *)
    elapsed_s = 0.0;
    trials_per_sec = 0.0;
    domains_used = 0;
    shards_rescued = 0;
    alloc_minor_words = 0.0;
    alloc_promoted_words = 0.0;
    alloc_minor_collections = 0;
    bytes_per_trial = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* campaign core: the bookkeeping every executor shares *)

exception Interrupted of { completed : int; total : int }

type ledger = {
  missing : int array;
  stop : unit -> bool;
  has : int -> bool;
  keep : int -> trial -> unit;
  journal : int -> trial -> unit;
  event : string -> unit;
}

(* Check the arguments, preload a resumed journal's trials, open the
   journal, let [execute] run the missing indices, then either journal
   the interrupt and raise, or merge.  The clock stops when [execute]
   returns, so [elapsed_s] never includes shrinking. *)
let run_with ?(shrink = true) ?checkpoint ?(resume = false)
    ?(should_stop = fun () -> false) ~root_seed ~trials spec execute =
  if trials < 0 then invalid_arg "Torture.run: trials must be non-negative";
  if resume && checkpoint = None then
    invalid_arg "Torture.run: resume requires a checkpoint path";
  let t0 = Unix.gettimeofday () in
  let by_index = Array.make (max 1 trials) None in
  let journal =
    match checkpoint with
    | None -> None
    | Some path ->
        let existing =
          if resume && Sys.file_exists path then
            In_channel.with_open_bin path In_channel.input_all
          else ""
        in
        let held = split_journal existing in
        Option.iter
          (fun h ->
            List.iter
              (fun (i, tr) -> by_index.(i) <- Some tr)
              (journaled_trials path spec ~root_seed ~trials h))
          held;
        Some
          (open_journal path ~fresh:(Option.is_none held) ~existing
             ~header:(header_line spec ~root_seed ~trials))
  in
  let write line =
    match journal with None -> () | Some j -> journal_write j line
  in
  let used, measured =
    execute
      {
        missing =
          Array.of_list
            (List.filter
               (fun i -> by_index.(i) = None)
               (List.init trials Fun.id));
        stop = should_stop;
        has = (fun i -> by_index.(i) <> None);
        keep = (fun i tr -> by_index.(i) <- Some tr);
        journal =
          (fun i tr ->
            match journal with
            | None -> ()
            | Some j -> journal_write j (trial_line i tr));
        event = write;
      }
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let completed =
    Array.fold_left (fun n t -> if t = None then n else n + 1) 0 by_index
  in
  let interrupted = completed < trials && should_stop () in
  if interrupted then
    write
      (Printf.sprintf
         {|{ "event": "interrupted", "completed": %d, "total": %d }|}
         completed trials);
  Option.iter (fun j -> close_out j.oc) journal;
  if interrupted then raise (Interrupted { completed; total = trials });
  if completed < trials then invalid_arg "Torture.run: a trial was lost";
  let report =
    merge spec ~root_seed ~trials ~shrink
      (Array.init trials (fun i -> Option.get by_index.(i)))
  in
  ( {
      report with
      elapsed_s;
      trials_per_sec = float_of_int trials /. Float.max elapsed_s 1e-9;
      domains_used = used;
    },
    measured )

let run ?(domains = 1) ?(root_seed = 1) ?(trials = 200) ?shrink ?checkpoint
    ?resume ?should_stop spec =
  let report, (rescued, alloc, executed) =
    run_with ?shrink ?checkpoint ?resume ?should_stop ~root_seed ~trials spec
    @@ fun l ->
    let n_missing = Array.length l.missing in
    let domains = max 1 (min domains (max 1 n_missing)) in
    (* shard d owns the missing positions { k | k mod domains = d };
       trials share nothing, so the only cross-domain traffic is the
       journal and the join.  Each worker builds one {!Session.scratch}
       and reuses it across its whole trial range, and meters its own
       allocation: [Gc.quick_stat] counters are per-domain, so the
       snapshots bracket the loop inside the worker and the shard deltas
       are summed after the join.  [stop] is polled between trials, so
       an interrupt loses at most the trials in flight — everything
       completed is already journaled. *)
    let worker d () =
      let scratch = Session.make_scratch () in
      let a0 = Dtc_util.Alloc_stats.snap () in
      let acc = ref [] in
      let k = ref d in
      while !k < n_missing && not (l.stop ()) do
        let i = l.missing.(!k) in
        let tr = run_trial spec ~scratch ~root:root_seed ~index:i in
        l.journal i tr;
        acc := (i, tr) :: !acc;
        k := !k + domains
      done;
      let alloc =
        Dtc_util.Alloc_stats.delta ~before:a0
          ~after:(Dtc_util.Alloc_stats.snap ())
      in
      (!acc, alloc)
    in
    let rescued = ref 0 in
    let rescue d =
      incr rescued;
      worker d ()
    in
    let shards =
      if domains = 1 then [ worker 0 () ]
      else
        (* a shard whose domain dies (spawn failure or an escaped
           exception — run_trial contains per-trial faults, so this is a
           last line of defence) is re-run on the joining domain: trials
           are pure functions of their index, so the re-run is
           bit-identical to what the lost domain would have produced *)
        List.init domains (fun d ->
            try Some (Domain.spawn (worker d)) with _ -> None)
        |> List.mapi (fun d h ->
               match Option.map Domain.join h with
               | Some shard -> shard
               | None | (exception _) -> rescue d)
    in
    List.iter
      (fun (shard, _) -> List.iter (fun (i, tr) -> l.keep i tr) shard)
      shards;
    let alloc =
      List.fold_left
        (fun acc (_, d) -> Dtc_util.Alloc_stats.add acc d)
        Dtc_util.Alloc_stats.zero shards
    in
    (domains, (!rescued, alloc, n_missing))
  in
  {
    report with
    shards_rescued = rescued;
    alloc_minor_words = alloc.Dtc_util.Alloc_stats.d_minor_words;
    alloc_promoted_words = alloc.Dtc_util.Alloc_stats.d_promoted_words;
    alloc_minor_collections = alloc.Dtc_util.Alloc_stats.d_minor_collections;
    (* per trial actually executed this run: preloaded checkpoint trials
       allocate nothing, so dividing by [trials] would flatter resumes *)
    bytes_per_trial = Dtc_util.Alloc_stats.bytes_per alloc executed;
  }

(* ------------------------------------------------------------------ *)
(* rendering *)

type chaos = { kill_prob : float; hang_prob : float; chaos_seed : int }

type supervision = {
  workers_spawned : int;
  worker_deaths : int;
  worker_hangs : int;
  rescues : int;
  retries : int;
  degradations : int;
  inproc_trials : int;
  chaos : chaos;
}

let no_supervision =
  {
    workers_spawned = 0;
    worker_deaths = 0;
    worker_hangs = 0;
    rescues = 0;
    retries = 0;
    degradations = 0;
    inproc_trials = 0;
    chaos = { kill_prob = 0.0; hang_prob = 0.0; chaos_seed = 0 };
  }

let supervision_json s =
  Printf.sprintf
    {|{ "workers_spawned": %d, "worker_deaths": %d, "worker_hangs": %d, "rescues": %d, "retries": %d, "degradations": %d, "inproc_trials": %d, "chaos": { "kill": %.4f, "hang": %.4f, "seed": %d } }|}
    s.workers_spawned s.worker_deaths s.worker_hangs s.rescues s.retries
    s.degradations s.inproc_trials s.chaos.kill_prob s.chaos.hang_prob
    s.chaos.chaos_seed

let to_json ?(timing = true) ?(supervision = no_supervision) r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"detectable-torture/v4\",\n";
  add "  \"object\": \"%s\",\n" (escape r.label);
  add "  \"root_seed\": %d,\n" r.root_seed;
  add "  \"trials\": %d,\n" r.trials;
  add
    "  \"config\": { \"policy\": %S, \"crash_prob\": %.4f, \"max_crashes\": \
     %d, \"max_steps\": %d, \"fault\": %S, \"watchdog\": %d },\n"
    (policy_string r.policy) r.crash_prob r.max_crashes r.max_steps
    (Nvm.Fault_model.to_string r.fault)
    r.watchdog;
  add
    "  \"verdicts\": { \"linearized\": %d, \"not_linearized\": %d, \
     \"incomplete\": %d, \"budget_exhausted\": %d, \"engine_faults\": %d },\n"
    r.linearized r.not_linearized r.incomplete r.budget_exhausted
    r.engine_faults;
  add "  \"recoveries\": { \"returned\": %d, \"fail_verdicts\": %d },\n"
    r.rec_returned r.rec_failed;
  add
    "  \"crashes\": { \"injected\": %d, \"bucket_width\": %d, \"histogram\": \
     [ %s ] },\n"
    r.crashes_injected crash_bucket
    (String.concat ", "
       (List.map
          (fun (b0, n) ->
            Printf.sprintf {|{ "from_step": %d, "count": %d }|} b0 n)
          r.crash_hist));
  add "  \"steps\": %s,\n" (dist_json r.steps);
  add "  \"max_shared_bits\": %s,\n" (dist_json r.max_shared_bits);
  (match r.first_failure with
  | None -> add "  \"first_failure\": null"
  | Some f ->
      add "  \"first_failure\": {\n";
      add "    \"trial\": %d,\n" f.trial;
      add "    \"seed\": %d,\n" f.seed;
      add "    \"msg\": \"%s\",\n" (escape f.msg);
      add "    \"schedule\": %s,\n" (schedule_json f.schedule);
      (match f.minimised with
      | None -> add "    \"minimised\": null,\n"
      | Some ds -> add "    \"minimised\": %s,\n" (schedule_json ds));
      add "    \"shrink_attempts\": %d\n" f.shrink_attempts;
      add "  }");
  (match r.first_engine_fault with
  | None -> add ",\n  \"first_engine_fault\": null"
  | Some ef ->
      add
        ",\n  \"first_engine_fault\": { \"trial\": %d, \"seed\": %d, \"msg\": \
         \"%s\" }"
        ef.ef_trial ef.ef_seed (escape ef.ef_msg));
  if timing then
    add
      ",\n  \"timing\": { \"elapsed_s\": %.6f, \"trials_per_sec\": %.1f, \
       \"domains\": %d, \"shards_rescued\": %d, \"alloc\": { \"minor_words\": \
       %.0f, \"promoted_words\": %.0f, \"minor_collections\": %d, \
       \"bytes_per_trial\": %.1f }, \"supervision\": %s }\n"
      r.elapsed_s r.trials_per_sec r.domains_used r.shards_rescued
      r.alloc_minor_words r.alloc_promoted_words r.alloc_minor_collections
      r.bytes_per_trial (supervision_json supervision)
  else add "\n";
  add "}\n";
  Buffer.contents b

let pp_report ?(timing = true) ?(supervision = no_supervision) () fmt r =
  (* the non-timing lines below are pure functions of the deterministic
     report fields — with [~timing:false] this rendering is the text
     analogue of [to_json ~timing:false], byte-identical across domain
     counts, resume splits and supervision schedules *)
  if timing then
    Format.fprintf fmt
      "torture: %s — %d trials, root seed %d, policy %s, fault %s, %d \
       domain(s)@."
      r.label r.trials r.root_seed (policy_string r.policy)
      (Nvm.Fault_model.to_string r.fault)
      r.domains_used
  else
    Format.fprintf fmt
      "torture: %s — %d trials, root seed %d, policy %s, fault %s@." r.label
      r.trials r.root_seed (policy_string r.policy)
      (Nvm.Fault_model.to_string r.fault);
  Format.fprintf fmt
    "verdicts:   %d linearized, %d not-linearized, %d incomplete, %d \
     budget-exhausted, %d engine faults@."
    r.linearized r.not_linearized r.incomplete r.budget_exhausted
    r.engine_faults;
  Format.fprintf fmt
    "crashes:    %d injected; recoveries: %d returned, %d fail verdicts@."
    r.crashes_injected r.rec_returned r.rec_failed;
  Format.fprintf fmt "steps:      min %d, mean %.1f, max %d (total %d)@."
    r.steps.d_min r.steps.d_mean r.steps.d_max r.steps.d_total;
  Format.fprintf fmt "space:      max_shared_bits min %d, mean %.1f, max %d@."
    r.max_shared_bits.d_min r.max_shared_bits.d_mean r.max_shared_bits.d_max;
  if timing then begin
    Format.fprintf fmt "throughput: %.1f trials/sec (%.3fs elapsed%s)@."
      r.trials_per_sec r.elapsed_s
      (if r.shards_rescued > 0 then
         Printf.sprintf ", %d shard(s) rescued" r.shards_rescued
       else "");
    Format.fprintf fmt
      "alloc:      %.0f bytes/trial (%.0f minor words, %.0f promoted, %d \
       minor GCs)@."
      r.bytes_per_trial r.alloc_minor_words r.alloc_promoted_words
      r.alloc_minor_collections;
    let s = supervision in
    if s.workers_spawned > 0 then
      Format.fprintf fmt
        "supervise:  %d worker(s) spawned, %d death(s), %d hang(s), %d \
         rescue(s), %d retry(ies), %d degradation(s), %d in-process trial(s)@."
        s.workers_spawned s.worker_deaths s.worker_hangs s.rescues s.retries
        s.degradations s.inproc_trials
  end;
  (match r.crash_hist with
  | [] -> ()
  | hist ->
      let widest = List.fold_left (fun acc (_, n) -> max acc n) 1 hist in
      Format.fprintf fmt "crash-point histogram (bucket width %d):@."
        crash_bucket;
      List.iter
        (fun (b0, n) ->
          let bar = max 1 (n * 40 / widest) in
          Format.fprintf fmt "  [%5d,%5d) %s %d@." b0 (b0 + crash_bucket)
            (String.make bar '#') n)
        hist);
  (match r.first_engine_fault with
  | None -> ()
  | Some ef ->
      Format.fprintf fmt "first engine fault: trial %d (seed %d): %s@."
        ef.ef_trial ef.ef_seed ef.ef_msg);
  match r.first_failure with
  | None -> ()
  | Some f ->
      Format.fprintf fmt "first failure: trial %d (seed %d): %s@." f.trial
        f.seed f.msg;
      Format.fprintf fmt "  schedule (%d decisions): %s@."
        (List.length f.schedule)
        (String.concat " " (List.map decision_string f.schedule));
      (match f.minimised with
      | Some ds ->
          Format.fprintf fmt
            "  minimised to %d decisions (%d replays): %s  [prefix, then free \
             run]@."
            (List.length ds) f.shrink_attempts
            (String.concat " " (List.map decision_string ds))
      | None ->
          Format.fprintf fmt
            "  (no minimisation: failure did not reproduce under tolerant \
             replay)@.")
