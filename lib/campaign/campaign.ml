open Sched

type fault_plan = No_fault | Kill_after of int | Hang_after of int

type chaos = Torture.chaos = {
  kill_prob : float;
  hang_prob : float;
  chaos_seed : int;
}

let no_chaos = Torture.no_supervision.chaos

let chaos_to_string c =
  Printf.sprintf "kill=%g,hang=%g,seed=%d" c.kill_prob c.hang_prob c.chaos_seed

let chaos_of_string s =
  let parse () =
    List.fold_left
      (fun c part ->
        let part = String.trim part in
        if part = "" then c
        else
          match String.index_opt part '=' with
          | None -> failwith part
          | Some eq -> (
              let k = String.trim (String.sub part 0 eq) in
              let v =
                String.trim
                  (String.sub part (eq + 1) (String.length part - eq - 1))
              in
              match k with
              | "kill" -> { c with kill_prob = float_of_string v }
              | "hang" -> { c with hang_prob = float_of_string v }
              | "seed" -> { c with chaos_seed = int_of_string v }
              | _ -> failwith k))
      no_chaos
      (String.split_on_char ',' s)
  in
  match parse () with
  | c ->
      let ok p = p >= 0.0 && p <= 1.0 in
      if not (ok c.kill_prob && ok c.hang_prob) then
        Error "chaos probabilities must lie in [0, 1]"
      else if c.kill_prob +. c.hang_prob > 1.0 then
        Error "chaos kill + hang must not exceed 1"
      else Ok c
  | exception _ ->
      Error
        (Printf.sprintf "bad chaos spec %S (expected kill=P,hang=Q,seed=S)" s)

type config = {
  workers : int;
  heartbeat_every : int;
  heartbeat_timeout : float;
  retry_budget : int;
  chaos : chaos;
  chaos_plan : (lo:int -> attempt:int -> range_len:int -> fault_plan) option;
}

let default_config =
  {
    workers = 4;
    heartbeat_every = 16;
    heartbeat_timeout = 30.0;
    retry_budget = 3;
    chaos = no_chaos;
    chaos_plan = None;
  }

type counters = Torture.supervision = {
  workers_spawned : int;
  worker_deaths : int;
  worker_hangs : int;
  retries : int;
  inproc_trials : int;
  chaos : chaos;
}

(* ------------------------------------------------------------------ *)
(* worker side *)

let worker_main ?(fault = No_fault) ?(out = stdout) ~heartbeat_every ~root_seed
    ~lo ~hi spec =
  if lo < 0 || hi < lo then invalid_arg "Campaign.worker_main: bad range";
  let emit line =
    output_string out line;
    output_char out '\n';
    flush out
  in
  (* announce liveness before the (possibly slow) first trial, so the
     supervisor's hang detector starts from a real signal *)
  emit {|{ "event": "heartbeat", "done": 0 }|};
  let scratch = Session.make_scratch () in
  let completed = ref 0 in
  for i = lo to hi - 1 do
    (match fault with
    | Kill_after k when !completed = k ->
        (* chaos: an abrupt crash — no done marker, distinctive status *)
        exit 70
    | Hang_after k when !completed = k ->
        (* chaos: a wedged worker — alive but silent, forever *)
        while true do
          Unix.sleepf 3600.0
        done
    | _ -> ());
    let tr = Torture.run_trial spec ~scratch ~root:root_seed ~index:i in
    emit (Torture.trial_line i tr);
    incr completed;
    if heartbeat_every > 0 && !completed mod heartbeat_every = 0 then
      emit (Printf.sprintf {|{ "event": "heartbeat", "done": %d }|} !completed)
  done;
  emit (Printf.sprintf {|{ "event": "done", "lo": %d, "hi": %d }|} lo hi)

(* ------------------------------------------------------------------ *)
(* supervisor side *)

(* a pending (sub)range of trial indices [r_lo, r_hi), with its respawn
   history: attempt 1 is the first spawn, attempt n+1 the n-th respawn *)
type range = { r_lo : int; r_hi : int; r_attempt : int }

type worker = {
  w_pid : int;
  w_fd : Unix.file_descr;
  w_buf : Buffer.t;  (* partial-line carry between reads *)
  mutable w_last : float;  (* last byte seen (heartbeat or trial) *)
  w_lo : int;
  w_hi : int;
  w_attempt : int;
}

(* maximal contiguous runs of the missing trial indices *)
let coalesce missing =
  let rec go acc run = function
    | [] -> List.rev (match run with None -> acc | Some r -> r :: acc)
    | i :: rest -> (
        match run with
        | Some (lo, hi) when i = hi -> go acc (Some (lo, hi + 1)) rest
        | Some r -> go (r :: acc) (Some (i, i + 1)) rest
        | None -> go acc (Some (i, i + 1)) rest)
  in
  go [] None missing

(* split a run into near-equal pieces of at most [target] trials *)
let split_run (lo, hi) target =
  let len = hi - lo in
  let pieces = max 1 ((len + target - 1) / target) in
  List.filter_map
    (fun p ->
      let a = lo + (p * len / pieces) and b = lo + ((p + 1) * len / pieces) in
      if b > a then Some (a, b) else None)
    (List.init pieces Fun.id)

let run ?checkpoint ?resume ?shrink ?should_stop ?(config = default_config)
    ~worker_argv ~root_seed ~trials spec =
  if config.workers < 1 then invalid_arg "Campaign.run: workers must be >= 1";
  let hb_timeout = config.heartbeat_timeout in
  if not (hb_timeout > 0.0 && Float.is_finite hb_timeout) then
    invalid_arg "Campaign.run: heartbeat_timeout must be a finite number > 0";
  if config.retry_budget < 0 then
    invalid_arg "Campaign.run: retry_budget must be >= 0";
  Torture.run_with ?shrink ?checkpoint ?resume ?should_stop ~root_seed ~trials
    spec
  @@ fun (l : Torture.ledger) ->
  let now () = Unix.gettimeofday () in
  let jevent fmt = Printf.ksprintf l.event fmt in
  let record ?line i tr =
    l.keep i tr;
    l.journal ?line i tr
  in
  (* counters *)
  let spawned = ref 0
  and deaths = ref 0
  and hangs = ref 0
  and retries = ref 0
  and inproc = ref 0 in
  (* pending ranges, first in first out *)
  let queue = Queue.create () in
  (* initial ranges: contiguous runs of missing indices, split so a clean
     run hands one chunk to each worker *)
  let target =
    max 1 ((Array.length l.missing + config.workers - 1) / config.workers)
  in
  List.iter
    (fun run ->
      List.iter
        (fun (lo, hi) ->
          Queue.add { r_lo = lo; r_hi = hi; r_attempt = 1 } queue)
        (split_run run target))
    (coalesce (Array.to_list l.missing));
  let chaos_draw =
    match config.chaos_plan with
    | Some plan -> plan
    | None ->
        fun ~lo ~attempt ~range_len ->
          let c = config.chaos in
          if c.kill_prob = 0.0 && c.hang_prob = 0.0 then No_fault
          else
            (* keyed on the range, not the spawn order: which worker is
               reaped first must not change the fault schedule *)
            let g =
              Dtc_util.Prng.stream
                (Dtc_util.Prng.stream_seed c.chaos_seed ~index:lo)
                ~index:attempt
            in
            let u = Dtc_util.Prng.float g in
            if u < c.kill_prob then
              Kill_after (Dtc_util.Prng.int g (max 1 range_len))
            else if u < c.kill_prob +. c.hang_prob then
              Hang_after (Dtc_util.Prng.int g (max 1 range_len))
            else No_fault
  in
  let workers : worker list ref = ref [] in
  let spawn_range r =
    let fault =
      chaos_draw ~lo:r.r_lo ~attempt:r.r_attempt ~range_len:(r.r_hi - r.r_lo)
    in
    let argv = worker_argv ~lo:r.r_lo ~hi:r.r_hi ~fault in
    let rd, wr = Unix.pipe () in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let pid = Unix.create_process argv.(0) argv devnull wr Unix.stderr in
    Unix.close wr;
    Unix.close devnull;
    incr spawned;
    if r.r_attempt > 1 then incr retries;
    jevent {|{ "event": "spawn", "pid": %d, "lo": %d, "hi": %d, "attempt": %d }|}
      pid r.r_lo r.r_hi r.r_attempt;
    workers :=
      {
        w_pid = pid;
        w_fd = rd;
        w_buf = Buffer.create 4096;
        w_last = now ();
        w_lo = r.r_lo;
        w_hi = r.r_hi;
        w_attempt = r.r_attempt;
      }
      :: !workers
  in
  let process_line w line =
    let line = String.trim line in
    if line <> "" then begin
      w.w_last <- now ();
      match Tiny_json.parse line with
      | exception Tiny_json.Error _ -> () (* garbage on the pipe *)
      | j ->
          if Tiny_json.mem "event" j then () (* heartbeat/done: liveness *)
          else (
            match Torture.trial_of_json j with
            | exception _ -> ()
            | i, tr ->
                (* the worker's line is the journal record: write it as
                   read rather than re-render the same bytes *)
                if i >= 0 && i < trials && not (l.has i) then
                  record ~line i tr)
    end
  in
  let rdbuf = Bytes.create 65536 in
  let read_worker w =
    match Unix.read w.w_fd rdbuf 0 (Bytes.length rdbuf) with
    | 0 -> `Eof
    | n ->
        Buffer.add_subbytes w.w_buf rdbuf 0 n;
        let s = Buffer.contents w.w_buf in
        let rec go start =
          match String.index_from_opt s start '\n' with
          | Some nl ->
              process_line w (String.sub s start (nl - start));
              go (nl + 1)
          | None ->
              Buffer.clear w.w_buf;
              Buffer.add_substring w.w_buf s start (String.length s - start)
        in
        go 0;
        `More
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `More
  in
  let first_missing lo hi =
    let rec go i = if i >= hi || not (l.has i) then i else go (i + 1) in
    go lo
  in
  let kill_worker w =
    try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ()
  in
  (* after a SIGKILL the write end closes: drain whatever completed
     trials were still in flight, then fall through to the reaper *)
  let drain w =
    let rec go () = match read_worker w with `Eof -> () | `More -> go () in
    try go () with Unix.Unix_error _ -> ()
  in
  let close_and_wait w =
    (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ()
  in
  let inproc_scratch = lazy (Session.make_scratch ()) in
  let reap w ~hung =
    close_and_wait w;
    workers := List.filter (fun x -> x != w) !workers;
    let rem_lo = first_missing w.w_lo w.w_hi in
    if rem_lo >= w.w_hi then
      jevent {|{ "event": "exit", "pid": %d, "lo": %d, "hi": %d }|} w.w_pid
        w.w_lo w.w_hi
    else begin
      if hung then incr hangs else incr deaths;
      jevent
        {|{ "event": %S, "pid": %d, "lo": %d, "hi": %d, "remaining_lo": %d, "attempt": %d }|}
        (if hung then "hang" else "death")
        w.w_pid w.w_lo w.w_hi rem_lo w.w_attempt;
      if w.w_attempt <= config.retry_budget then
        Queue.add
          { r_lo = rem_lo; r_hi = w.w_hi; r_attempt = w.w_attempt + 1 }
          queue
      else begin
        (* budget spent: run the remainder in-process (no chaos, no
           subprocess), which alone guarantees the campaign terminates *)
        jevent {|{ "event": "inproc", "lo": %d, "hi": %d }|} rem_lo w.w_hi;
        let scratch = Lazy.force inproc_scratch in
        for i = rem_lo to w.w_hi - 1 do
          if not (l.has i) then begin
            record i (Torture.run_trial spec ~scratch ~root:root_seed ~index:i);
            incr inproc
          end
        done;
        (* nobody read the other workers' pipes meanwhile: their silence
           was the supervisor's, so restart their hang clocks *)
        List.iter (fun x -> x.w_last <- now ()) !workers
      end
    end
  in
  while (!workers <> [] || not (Queue.is_empty queue)) && not (l.stop ()) do
    while
      List.length !workers < config.workers && not (Queue.is_empty queue)
    do
      spawn_range (Queue.pop queue)
    done;
    let fds = List.map (fun w -> w.w_fd) !workers in
    let timeout =
      let hb_deadline =
        List.fold_left
          (fun acc w -> Float.min acc (w.w_last +. config.heartbeat_timeout))
          infinity !workers
      in
      Float.max 0.01 (Float.min (hb_deadline -. now ()) 0.25)
    in
    let readable =
      match Unix.select fds [] [] timeout with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun w ->
        if List.mem w.w_fd readable then
          match read_worker w with
          | `Eof -> reap w ~hung:false
          | `More -> ())
      !workers;
    let t = now () in
    List.iter
      (fun w ->
        if t -. w.w_last > config.heartbeat_timeout then begin
          kill_worker w;
          drain w;
          reap w ~hung:true
        end)
      !workers
  done;
  (* interrupted: stop the workers still running; the core journals the
     event and raises *)
  List.iter
    (fun w ->
      kill_worker w;
      close_and_wait w)
    !workers;
  ( config.workers,
    {
      workers_spawned = !spawned;
      worker_deaths = !deaths;
      worker_hangs = !hangs;
      retries = !retries;
      inproc_trials = !inproc;
      chaos = config.chaos;
    } )
