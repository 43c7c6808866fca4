open Nvm
open History
open Runtime

type policy = Retry | Give_up

let policy_name = function Retry -> "retry" | Give_up -> "giveup"

(* Driver-side view of what a process is up to.  This is "application
   knowledge": it survives crashes (the application's script is durable),
   whereas everything inside the fiber is volatile. *)
type op_status =
  | Idle
  | Announced of int * Spec.op  (* uid, op: in flight, response not returned *)
  | Completed of int * Spec.op * Value.t  (* returned, announcement not yet cleared *)

(* ------------------------------------------------------------------ *)
(* Undo mode: incarnations and ghost replay.

   OCaml effect continuations are one-shot, so a fiber cannot be
   snapshotted for backtracking.  What CAN be replayed is the program
   itself: process programs are deterministic functions of (workload,
   pid) and of the external inputs they consume — primitive-step
   responses, fresh uids, and the driver-context [pending] query.  In
   undo mode the session records exactly those inputs, per process and
   per {e incarnation} (the program segment between two crashes), so a
   discarded fiber can be rebuilt at any logged position by re-running
   its program and feeding it the log ("ghost replay"), with all
   session side effects suppressed.  Ghost replay touches no memory —
   requests are answered from the log, not the machine — so it costs
   O(own steps of that one process) and nothing else. *)

type entry =
  | E_resp of Value.t  (* response fed to the fiber's pending request *)
  | E_uid of int  (* result of a [fresh_uid] draw *)
  | E_pending of Spec.op option  (* result of the driver-context pending query *)

type incarnation = {
  restart : bool;  (* restart_prog (post-crash) or client_prog (initial) *)
  i_todo : Spec.op list;  (* driver fields at incarnation start: the *)
  i_status : op_status;  (* program's behavior is a function of these *)
  i_rec_started : bool;  (* plus the logged entries *)
  mutable log : entry array;
  mutable log_len : int;
}

type ghost = { g_log : entry array; g_end : int; mutable g_pos : int }

type pstate = {
  pid : int;
  mutable todo : Spec.op list;
  mutable status : op_status;
  mutable fiber : Fiber.t option;
  mutable cur_steps : int;  (* own steps since current op/recovery started *)
  mutable in_recovery : bool;
  mutable rec_started : bool;
      (* has any recovery run for the current operation instance? *)
  mutable step_sig : int;
      (* rolling digest of every (request, response) this process has
         exchanged with the machine, with crash markers folded in.
         Programs are deterministic, so this pins down the fiber's
         continuation state exactly — see [state_digest]. *)
  mutable stamp : int;
      (* mutation stamp: refreshed from the session's never-reused
         counter whenever this process's driver state changes (own
         step, crash), and restored exactly by rewind.  Equal stamps
         therefore guarantee identical process state, which lets the
         explorer cache per-process digests across DFS nodes instead of
         re-walking the incarnation logs at every node. *)
  (* undo mode only: *)
  mutable l_runnable : bool;  (* logical fiber status, valid even when *)
  mutable l_done : bool;  (* the physical fiber has been discarded *)
  mutable stale : bool;  (* fiber discarded by [rewind]; rebuild on demand *)
  mutable incs : incarnation list;  (* head = current incarnation; [] outside undo mode *)
}

type t = {
  machine : Machine.t;
  inst : Obj_inst.t;
  policy : policy;
  undo : bool;
  procs : pstate array;
  mutable events : Event.t list;  (* reversed *)
  mutable n_events : int;  (* = List.length events *)
  mutable uid : int;
  mutable steps : int;
  mutable crashes : int;
  op_steps_tbl : (string, int) Hashtbl.t;
  rec_steps_tbl : (string, int) Hashtbl.t;
  mutable anomalies : string list;
  mutable hist_sig : int;  (* rolling digest of [events], oldest first *)
  mutable ghost : ghost option;  (* Some iff a ghost replay is running *)
  (* Symmetry-canonical event digest (see [sym_note]): *)
  mutable sym_base : int;  (* n_events at creation end; max_int until then *)
  mutable sym_sig : int;  (* rolling digest of post-creation events, relabeled *)
  mutable sym_seen : int;  (* pids holding a first-occurrence rank *)
  sym_rank_of : int array;  (* pid -> first-occurrence rank, -1 unseen *)
  mutable stamp_next : int;
      (* source for [pstate.stamp]: strictly increasing, NEVER rewound
         (a recycled stamp could alias two different process states in
         a cache keyed on stamps) *)
}

(* Relabeled digest of the post-creation event stream, for the model
   checker's symmetry-canonical memo key ([`Dpor_sym_memo]).  Process
   ids are replaced by their post-creation first-occurrence rank — two
   executions that are images of each other under a pid permutation
   assign these ranks identically, position by position, so the digest
   is constant on permutation orbits.  Creation-drawn uids (uid < N;
   the creation prefix announces one op per process in pid order, so
   such a uid equals its owner's pid) are relabeled through the same
   ranks; later uids are drawn in event order, hence already
   position-invariant across related executions, and fold raw.  Event
   payloads (ops, response values) fold raw too: under an id-symmetric
   layout a payload could in principle embed a pid-indexed vector,
   which would only make the digest finer than the orbit relation —
   a missed dedup for the memo table, never a false merge.  The
   creation prefix itself (indices < [sym_base]) is excluded: it is
   bytewise identical across everything one exploration compares. *)
let sym_note s e =
  let n = Array.length s.procs in
  let rank pid =
    let r = s.sym_rank_of.(pid) in
    if r >= 0 then r
    else begin
      let r = s.sym_seen in
      s.sym_rank_of.(pid) <- r;
      s.sym_seen <- r + 1;
      r
    end
  in
  let uidc uid = if uid < n then rank uid else uid in
  let h =
    match e with
    | Event.Inv { pid; uid; op } ->
        let r = rank pid in
        Value.mix 0x1e1 (Value.mix r (Value.mix (uidc uid) (Hashtbl.hash op)))
    | Event.Ret { pid; uid; v } ->
        let r = rank pid in
        Value.mix 0x1e2
          (Value.mix r (Value.mix (uidc uid) (Value.hash_seeded 0 v)))
    | Event.Crash -> 0x1e3
    | Event.Rec_ret { pid; uid; v } ->
        let r = rank pid in
        Value.mix 0x1e4
          (Value.mix r (Value.mix (uidc uid) (Value.hash_seeded 0 v)))
    | Event.Rec_fail { pid; uid } ->
        let r = rank pid in
        Value.mix 0x1e5 (Value.mix r (uidc uid))
  in
  s.sym_sig <- Value.mix s.sym_sig h

let emit s e =
  match s.ghost with
  | Some _ -> ()  (* already recorded when it happened for real *)
  | None ->
      if s.n_events >= s.sym_base then sym_note s e;
      s.events <- e :: s.events;
      s.n_events <- s.n_events + 1;
      s.hist_sig <- Value.mix s.hist_sig (Hashtbl.hash e)

let log_entry ps e =
  match ps.incs with
  | [] -> ()
  | inc :: _ ->
      if inc.log_len = Array.length inc.log then begin
        let cap = max 16 (2 * Array.length inc.log) in
        let b = Array.make cap e in
        Array.blit inc.log 0 b 0 inc.log_len;
        inc.log <- b
      end;
      inc.log.(inc.log_len) <- e;
      inc.log_len <- inc.log_len + 1

let desync what = failwith ("Session: ghost replay desync (" ^ what ^ ")")

let ghost_next g what =
  if g.g_pos >= g.g_end then desync what
  else begin
    let e = g.g_log.(g.g_pos) in
    g.g_pos <- g.g_pos + 1;
    e
  end

let fresh_uid s ps =
  match s.ghost with
  | Some g -> (
      match ghost_next g "uid" with E_uid u -> u | _ -> desync "uid")
  | None ->
      let u = s.uid in
      s.uid <- u + 1;
      if s.undo then log_entry ps (E_uid u);
      u

(* [Obj_inst.pending] reads memory in driver context; at ghost-replay
   time the store holds the {e rewound} contents, not what this
   incarnation's prologue originally observed, so the original answer
   must come from the log. *)
let query_pending s ps =
  match s.ghost with
  | Some g -> (
      match ghost_next g "pending" with E_pending p -> p | _ -> desync "pending")
  | None ->
      let p = s.inst.pending ~pid:ps.pid in
      if s.undo then log_entry ps (E_pending p);
      p

let anomaly s fmt =
  Format.kasprintf
    (fun msg ->
      match s.ghost with
      | Some _ -> ()
      | None -> s.anomalies <- msg :: s.anomalies)
    fmt

(* exception-pattern lookup: [find_opt] would box a [Some] per step *)
let note_max tbl key v =
  match Hashtbl.find tbl key with
  | m -> if v > m then Hashtbl.replace tbl key v
  | exception Not_found -> Hashtbl.add tbl key v

let pop ps = match ps.todo with [] -> () | _ :: rest -> ps.todo <- rest

(* The client program for one process: perform the remaining workload,
   operation by operation, with the full announce/invoke/clear protocol. *)
let rec client_prog s ps () =
  match ps.todo with
  | [] -> Value.Unit
  | op :: _ ->
      let uid = fresh_uid s ps in
      emit s (Event.Inv { pid = ps.pid; uid; op });
      ps.status <- Announced (uid, op);
      ps.cur_steps <- 0;
      ps.in_recovery <- false;
      ps.rec_started <- false;
      s.inst.announce ~pid:ps.pid op;
      let r = s.inst.invoke ~pid:ps.pid op in
      emit s (Event.Ret { pid = ps.pid; uid; v = r });
      ps.status <- Completed (uid, op, r);
      pop ps;
      s.inst.clear ~pid:ps.pid;
      ps.status <- Idle;
      client_prog s ps ()

(* The program a process runs when restarted after a crash: first recover
   the in-flight operation (if the announcement shows one), then resume
   the remaining workload. *)
(* A recovery verdict lives in the caller's volatile state until the
   caller takes a persistent action (here: clearing the announcement).  A
   crash before the clear voids the verdict — the next recovery produces a
   fresh (and binding, if it sticks) one — so the session emits the
   recovery outcome only after the clear has executed.  This is why a
   single operation instance never gets two outcome events no matter how
   many times its recovery is re-crashed. *)
let restart_prog s ps () =
  (match query_pending s ps with
  | None -> (
      match ps.status with
      | Idle -> ()
      | Announced (uid, _) ->
          if not ps.rec_started then begin
            (* The crash hit during announcement: the operation committed
               no announcement, took no step of its own, and was certainly
               not linearized. *)
            emit s (Event.Rec_fail { pid = ps.pid; uid });
            match s.policy with Retry -> () | Give_up -> pop ps
          end
          else begin
            (* A recovery delivered a verdict and the announcement was
               cleared, but the crash struck before the caller could act
               on (or record) it.  The outcome is unknowable: leave the
               instance pending in the history. *)
            match s.policy with Retry -> () | Give_up -> pop ps
          end;
          ps.status <- Idle
      | Completed (_, _, _) ->
          (* Crash between the announcement clear and the next
             announcement: the operation completed and was recorded. *)
          ps.status <- Idle)
  | Some op -> (
      ps.in_recovery <- true;
      ps.cur_steps <- 0;
      (match ps.status with
      | Announced _ -> ps.rec_started <- true
      | Idle | Completed _ -> ());
      let r = s.inst.recover ~pid:ps.pid op in
      ps.in_recovery <- false;
      match ps.status with
      | Completed (uid, _, resp) ->
          (* The operation had already returned before the crash; a strict
             detectable recovery must reproduce the persisted response. *)
          if s.inst.strict_recovery && not (Value.equal r resp) then
            anomaly s
              "p%d: recovery of completed op #%d returned %a, expected %a"
              ps.pid uid Value.pp r Value.pp resp;
          s.inst.clear ~pid:ps.pid;
          ps.status <- Idle
      | Announced (uid, _) ->
          (* clear first: if a crash voids this verdict mid-clear, the next
             recovery re-runs; the verdict becomes binding — and is
             emitted — only once the clear has executed *)
          s.inst.clear ~pid:ps.pid;
          if Obj_inst.is_fail r then begin
            emit s (Event.Rec_fail { pid = ps.pid; uid });
            match s.policy with Retry -> () | Give_up -> pop ps
          end
          else if Obj_inst.is_unknown r then begin
            (* durable-but-not-detectable recovery: no verdict exists, so
               no outcome is recorded — the instance stays pending in the
               history; retrying may duplicate it, giving up may lose it *)
            match s.policy with Retry -> () | Give_up -> pop ps
          end
          else begin
            emit s (Event.Rec_ret { pid = ps.pid; uid; v = r });
            pop ps
          end;
          ps.status <- Idle
      | Idle ->
          anomaly s "p%d: pending announcement %a but driver saw no op"
            ps.pid Spec.pp_op op;
          s.inst.clear ~pid:ps.pid));
  client_prog s ps ()

let op_name ps =
  match ps.status with
  | Announced (_, op) | Completed (_, op, _) -> op.Spec.name
  | Idle -> "idle"

(* Mirror the physical fiber status into the logical flags that survive
   the fiber's disposal.  Called after every fiber transition — never
   after [rewind], which restores the flags from the mark instead.
   Uses the allocation-free status probes: this runs once per step. *)
let sync_logical ps =
  match ps.fiber with
  | Some f ->
      ps.l_runnable <- Fiber.is_pending f;
      ps.l_done <- Fiber.is_done f
  | None ->
      ps.l_runnable <- false;
      ps.l_done <- false

let push_incarnation ps ~restart =
  ps.incs <-
    {
      restart;
      i_todo = ps.todo;
      i_status = ps.status;
      i_rec_started = ps.rec_started;
      log = [||];
      log_len = 0;
    }
    :: ps.incs

(* Reusable scratch: the reporting tables are the only
   session-owned hash tables, and a torture campaign creates one session
   per trial — resetting two pre-sized tables beats allocating fresh
   ones millions of times. *)
type scratch = {
  sc_op_steps : (string, int) Hashtbl.t;
  sc_rec_steps : (string, int) Hashtbl.t;
}

let make_scratch () =
  { sc_op_steps = Hashtbl.create 64; sc_rec_steps = Hashtbl.create 64 }

let create ?(policy = Retry) ?(undo = false) ?scratch machine inst ~workloads =
  if undo then Machine.set_journal machine true;
  let op_steps_tbl, rec_steps_tbl =
    match scratch with
    | None -> (Hashtbl.create 8, Hashtbl.create 8)
    | Some sc ->
        Hashtbl.reset sc.sc_op_steps;
        Hashtbl.reset sc.sc_rec_steps;
        (sc.sc_op_steps, sc.sc_rec_steps)
  in
  let s =
    {
      machine;
      inst;
      policy;
      undo;
      procs =
        Array.mapi
          (fun pid todo ->
            {
              pid;
              todo;
              status = Idle;
              fiber = None;
              cur_steps = 0;
              in_recovery = false;
              rec_started = false;
              step_sig = Value.mix 0 pid;
              stamp = pid;
              l_runnable = false;
              l_done = false;
              stale = false;
              incs = [];
            })
          workloads;
      events = [];
      n_events = 0;
      uid = 0;
      steps = 0;
      crashes = 0;
      op_steps_tbl;
      rec_steps_tbl;
      anomalies = [];
      hist_sig = 0;
      ghost = None;
      sym_base = max_int;
      sym_sig = 0;
      sym_seen = 0;
      sym_rank_of = Array.make (Array.length workloads) (-1);
      stamp_next = Array.length workloads;
    }
  in
  Array.iter
    (fun ps ->
      if undo then push_incarnation ps ~restart:false;
      ps.fiber <- Some (Fiber.start (client_prog s ps));
      sync_logical ps)
    s.procs;
  (* the creation prefix is over: later events feed the sym digest *)
  s.sym_base <- s.n_events;
  s

(* One predicate, three consumers ([runnable], [runnable_into],
   [finished]): allocation-free per probe. *)
let pid_runnable s ps =
  if s.undo then ps.l_runnable
  else match ps.fiber with Some f -> Fiber.is_pending f | None -> false

let runnable s =
  (* single descending pass: exactly one cons per runnable pid, no
     intermediate Array.to_list / filter_map spines *)
  let rec go i acc =
    if i < 0 then acc
    else
      let ps = s.procs.(i) in
      go (i - 1) (if pid_runnable s ps then ps.pid :: acc else acc)
  in
  go (Array.length s.procs - 1) []

let runnable_into s buf =
  let n = Array.length s.procs in
  if Array.length buf < n then
    invalid_arg "Session.runnable_into: buffer too small";
  let k = ref 0 in
  for i = 0 to n - 1 do
    if pid_runnable s s.procs.(i) then begin
      buf.(!k) <- s.procs.(i).pid;
      incr k
    end
  done;
  !k

let finished s =
  let n = Array.length s.procs in
  let rec go i = i >= n || ((not (pid_runnable s s.procs.(i))) && go (i + 1)) in
  go 0


(* Rebuild a stale fiber at its authoritative position: re-run the
   current incarnation's program, feeding it the logged inputs, with
   session side effects suppressed ([s.ghost]).  The program re-mutates
   the driver fields as it replays, so the authoritative (rewound)
   values are saved around the run — the replay necessarily converges
   back to them, but restoring is cheap insurance and keeps this code
   obviously correct. *)
let rebuild s ps =
  let inc = match ps.incs with inc :: _ -> inc | [] -> desync "incarnation" in
  let save_todo = ps.todo
  and save_status = ps.status
  and save_cur_steps = ps.cur_steps
  and save_in_recovery = ps.in_recovery
  and save_rec_started = ps.rec_started in
  ps.todo <- inc.i_todo;
  ps.status <- inc.i_status;
  ps.rec_started <- inc.i_rec_started;
  let g = { g_log = inc.log; g_end = inc.log_len; g_pos = 0 } in
  s.ghost <- Some g;
  Fun.protect
    ~finally:(fun () -> s.ghost <- None)
    (fun () ->
      (* the whole logged prefix runs as ONE straight-line execution:
         step responses come from the fiber's ghost feed (no per-step
         suspension) and uid/pending draws from [s.ghost], both off the
         same stream, so entry order is enforced exactly as when the
         prefix originally ran *)
      let f =
        Fiber.with_ghost_feed
          (fun _req ->
            if g.g_pos >= g.g_end then None
            else
              match ghost_next g "resume" with
              | E_resp v -> Some v
              | E_uid _ | E_pending _ -> desync "entry order")
          (fun () ->
            Fiber.start
              ((if inc.restart then restart_prog else client_prog) s ps))
      in
      if g.g_pos < g.g_end then desync "resume";
      ps.fiber <- Some f);
  ps.stale <- false;
  ps.todo <- save_todo;
  ps.status <- save_status;
  ps.cur_steps <- save_cur_steps;
  ps.in_recovery <- save_in_recovery;
  ps.rec_started <- save_rec_started;
  (* the rebuilt fiber must land on the logical status the mark promised *)
  match (ps.fiber, ps.l_runnable) with
  | Some f, true -> (
      match Fiber.status f with Fiber.Pending _ -> () | _ -> desync "status")
  | _ -> desync "status"

let bump_stamp s ps =
  ps.stamp <- s.stamp_next;
  s.stamp_next <- s.stamp_next + 1

let do_step s ps f req =
  let v = Machine.apply s.machine req in
  bump_stamp s ps;
  ps.step_sig <-
    Value.mix ps.step_sig
      (Value.mix (Hashtbl.hash req) (Value.hash_seeded 11 v));
  s.steps <- s.steps + 1;
  ps.cur_steps <- ps.cur_steps + 1;
  let tbl = if ps.in_recovery then s.rec_steps_tbl else s.op_steps_tbl in
  note_max tbl (op_name ps) ps.cur_steps;
  if s.undo then log_entry ps (E_resp v);
  Fiber.resume f v;
  if s.undo then sync_logical ps

let step s pid =
  if pid < 0 || pid >= Array.length s.procs then
    invalid_arg "Session.step: no such process";
  let ps = s.procs.(pid) in
  if s.undo then begin
    if not ps.l_runnable then invalid_arg "Session.step: process is not runnable";
    if ps.stale then rebuild s ps;
    match ps.fiber with
    | Some f when Fiber.is_pending f -> do_step s ps f (Fiber.pending_request f)
    | Some _ | None -> invalid_arg "Session.step: process is not runnable"
  end
  else
    match ps.fiber with
    | Some f when Fiber.is_pending f -> do_step s ps f (Fiber.pending_request f)
    | Some _ | None -> invalid_arg "Session.step: process is not runnable"

let pending_request s pid =
  if pid < 0 || pid >= Array.length s.procs then
    invalid_arg "Session.pending_request: no such process";
  let ps = s.procs.(pid) in
  if s.undo && not ps.l_runnable then None
  else begin
    (* in undo mode a rewound fiber may be stale: rebuild it first, just
       as [step] would, so the peek agrees with what stepping would do *)
    if s.undo && ps.stale then rebuild s ps;
    match ps.fiber with
    | Some f when Fiber.is_pending f -> Some (Fiber.pending_request f)
    | Some _ | None -> None
  end

let crash s wipe =
  (* The crash index is the pre-increment counter: crash k of the run
     uses fault stream k, and since rewind restores [s.crashes], a
     re-executed crash replays the identical wipe. *)
  let index = s.crashes in
  emit s Event.Crash;
  s.crashes <- s.crashes + 1;
  Array.iter
    (fun ps ->
      (match ps.fiber with Some f -> Fiber.kill f | None -> ());
      ps.fiber <- None;
      ps.stale <- false;
      bump_stamp s ps;
      (* crash marker: restart_prog's behavior depends on everything
         step_sig already covers, so keep rolling across the restart *)
      ps.step_sig <- Value.mix ps.step_sig 0xC0FFEE)
    s.procs;
  Machine.crash s.machine ~index wipe;
  Array.iter
    (fun ps ->
      (* snapshot the driver fields BEFORE the restart program runs: its
         prologue (pending query, possibly a give-up pop) mutates them *)
      if s.undo then push_incarnation ps ~restart:true;
      ps.fiber <- Some (Fiber.start (restart_prog s ps));
      sync_logical ps)
    s.procs

let steps s = s.steps
let crashes s = s.crashes
let max_cur_steps s =
  Array.fold_left (fun acc ps -> max acc ps.cur_steps) 0 s.procs
let history s = List.rev s.events
let events_rev s = s.events
let event_count s = s.n_events
let anomalies s = List.rev s.anomalies

let dump tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let op_steps s = dump s.op_steps_tbl
let rec_steps s = dump s.rec_steps_tbl

(* ------------------------------------------------------------------ *)
(* Undo-mode checkpointing.

   A mark is O(N): machine mark (a journal cursor + the shared-cache
   dirty set), the cons-list heads of [events]/[anomalies] (immutable
   spines, so a pointer IS a snapshot), the scalar counters, and per
   process the driver fields plus the incarnation-list head and its log
   length.  Rewind restores all of it and decides, per process, whether
   the physical fiber is still positioned exactly at the mark — if so
   it survives (the common case for processes the explored branch never
   stepped); otherwise it is killed and lazily rebuilt by ghost replay
   the next time the process is stepped.

   Marks are LIFO: rewinding to a mark invalidates every mark taken
   after it (their journal suffixes and log suffixes are gone).

   Deliberately NOT rewound: [op_steps_tbl]/[rec_steps_tbl], the
   max-own-steps report tables.  They are monotone maxima used only for
   reporting — the model checker's verdicts, histories and digests never
   read them — and a branch that was explored did execute those steps,
   so the maxima stay honest as "over everything tried". *)

type pmark = {
  mutable pm_todo : Spec.op list;
  mutable pm_status : op_status;
  mutable pm_cur_steps : int;
  mutable pm_in_recovery : bool;
  mutable pm_rec_started : bool;
  mutable pm_step_sig : int;
  mutable pm_stamp : int;
  mutable pm_runnable : bool;
  mutable pm_done : bool;
  mutable pm_incs : incarnation list;
  mutable pm_log_len : int;
}

(* Marks are mutable: the undo explorer takes one per DFS node, and
   refilling one pooled mark per recursion depth with [mark_into] keeps
   a node's checkpoint allocation-free (in the private-cache model). *)
type mark = {
  mk_machine : Machine.mark;
  mutable mk_events : Event.t list;
  mutable mk_n_events : int;
  mutable mk_anoms : string list;
  mutable mk_hist_sig : int;
  mutable mk_uid : int;
  mutable mk_steps : int;
  mutable mk_crashes : int;
  mutable mk_sym_sig : int;
  mutable mk_sym_seen : int;
  mk_procs : pmark array;
}

let check_undo s fn =
  if not s.undo then
    invalid_arg ("Session." ^ fn ^ ": session is not in undo mode")

let mark_into s m =
  check_undo s "mark";
  if Array.length m.mk_procs <> Array.length s.procs then
    invalid_arg "Session.mark_into: mark from a different session shape";
  Machine.mark_into s.machine m.mk_machine;
  m.mk_events <- s.events;
  m.mk_n_events <- s.n_events;
  m.mk_anoms <- s.anomalies;
  m.mk_hist_sig <- s.hist_sig;
  m.mk_uid <- s.uid;
  m.mk_steps <- s.steps;
  m.mk_crashes <- s.crashes;
  m.mk_sym_sig <- s.sym_sig;
  m.mk_sym_seen <- s.sym_seen;
  Array.iteri
    (fun i ps ->
      let pm = m.mk_procs.(i) in
      pm.pm_todo <- ps.todo;
      pm.pm_status <- ps.status;
      pm.pm_cur_steps <- ps.cur_steps;
      pm.pm_in_recovery <- ps.in_recovery;
      pm.pm_rec_started <- ps.rec_started;
      pm.pm_step_sig <- ps.step_sig;
      pm.pm_stamp <- ps.stamp;
      pm.pm_runnable <- ps.l_runnable;
      pm.pm_done <- ps.l_done;
      pm.pm_incs <- ps.incs;
      pm.pm_log_len <- (match ps.incs with inc :: _ -> inc.log_len | [] -> 0))
    s.procs

let mark s =
  check_undo s "mark";
  let m =
    {
      mk_machine = Machine.mark s.machine;
      mk_events = [];
      mk_n_events = 0;
      mk_anoms = [];
      mk_hist_sig = 0;
      mk_uid = 0;
      mk_steps = 0;
      mk_crashes = 0;
      mk_sym_sig = 0;
      mk_sym_seen = 0;
      mk_procs =
        Array.map
          (fun _ ->
            {
              pm_todo = [];
              pm_status = Idle;
              pm_cur_steps = 0;
              pm_in_recovery = false;
              pm_rec_started = false;
              pm_step_sig = 0;
              pm_stamp = 0;
              pm_runnable = false;
              pm_done = false;
              pm_incs = [];
              pm_log_len = 0;
            })
          s.procs;
    }
  in
  mark_into s m;
  m

(* First-occurrence ranks are assigned monotonically ([sym_seen] only
   grows, each pid's rank is written once), so restoring them needs no
   copy of the array: every rank >= the checkpointed [sym_seen] was
   assigned after the mark and is simply cleared. *)
let rewind_sym s ~sym_sig ~sym_seen =
  s.sym_sig <- sym_sig;
  if s.sym_seen <> sym_seen then begin
    let r = s.sym_rank_of in
    for p = 0 to Array.length r - 1 do
      if r.(p) >= sym_seen then r.(p) <- -1
    done;
    s.sym_seen <- sym_seen
  end

let rewind s m =
  check_undo s "rewind";
  Machine.rewind s.machine m.mk_machine;
  s.events <- m.mk_events;
  s.n_events <- m.mk_n_events;
  s.anomalies <- m.mk_anoms;
  s.hist_sig <- m.mk_hist_sig;
  s.uid <- m.mk_uid;
  s.steps <- m.mk_steps;
  s.crashes <- m.mk_crashes;
  rewind_sym s ~sym_sig:m.mk_sym_sig ~sym_seen:m.mk_sym_seen;
  Array.iteri
    (fun i pm ->
      let ps = s.procs.(i) in
      (* the physical fiber is exactly at the mark iff the process is in
         the same incarnation and has consumed the same number of logged
         inputs; then it survives (still [stale] if it already was).
         Otherwise its continuation has advanced past the mark — one-shot
         continuations cannot run backwards, so discard it and let
         [rebuild] ghost-replay it on demand. *)
      let same_pos =
        ps.incs == pm.pm_incs
        &&
        match ps.incs with
        | inc :: _ -> inc.log_len = pm.pm_log_len
        | [] -> true
      in
      ps.todo <- pm.pm_todo;
      ps.status <- pm.pm_status;
      ps.cur_steps <- pm.pm_cur_steps;
      ps.in_recovery <- pm.pm_in_recovery;
      ps.rec_started <- pm.pm_rec_started;
      ps.step_sig <- pm.pm_step_sig;
      ps.stamp <- pm.pm_stamp;
      ps.l_runnable <- pm.pm_runnable;
      ps.l_done <- pm.pm_done;
      if not same_pos then begin
        (match ps.fiber with Some f -> Fiber.kill f | None -> ());
        ps.fiber <- None;
        ps.stale <- true;
        ps.incs <- pm.pm_incs;
        match ps.incs with
        | inc :: _ -> inc.log_len <- pm.pm_log_len
        | [] -> ()
      end)
    m.mk_procs

(* Cheap exact digest of the session's future-relevant state.

   Process programs are deterministic: a fiber's continuation is a pure
   function of (workload, pid, the request/response sequence it has
   exchanged, crash restarts) — exactly what [step_sig] rolls up.  The
   driver-visible fields ([status], [todo], recovery flags) are functions
   of the same sequence, but folding them in costs nothing and guards the
   digest against future session features that might mutate them out of
   band.  [hist_sig] pins the real-time order of emitted events (the
   linearizability verdict of any extension depends on it), and [uid] /
   [steps] / [crashes] pin the counters that feed events and truncation.

   Two sessions over the same workloads with equal digests (and equal
   full-memory contents, which the caller checks separately) therefore
   behave identically under every future decision sequence. *)
let state_digest s =
  let acc = ref (Value.mix s.hist_sig (Value.mix s.uid s.steps)) in
  acc := Value.mix !acc s.crashes;
  Array.iter
    (fun ps ->
      let status_h =
        match ps.status with
        | Idle -> 1
        | Announced (uid, _) -> Value.mix 2 uid
        | Completed (uid, _, v) ->
            Value.mix (Value.mix 3 uid) (Value.hash_seeded 0 v)
      in
      let flags =
        (if ps.in_recovery then 1 else 0)
        lor (if ps.rec_started then 2 else 0)
        lor (match ps.fiber with
            | Some f ->
                if Fiber.is_pending f then 4
                else if Fiber.is_done f then 8
                else 12
            | None ->
                (* a stale undo-mode fiber is logically alive: digest the
                   status it will have once rebuilt, so replay- and
                   undo-engine digests of the same configuration agree *)
                if s.undo && ps.stale then
                  if ps.l_runnable then 4 else if ps.l_done then 8 else 12
                else 16)
      in
      acc := Value.mix !acc ps.step_sig;
      acc := Value.mix !acc status_h;
      acc := Value.mix !acc (Value.mix (List.length ps.todo) flags))
    s.procs;
  !acc

(* ------------------------------------------------------------------ *)
(* Symmetry-canonical digest ingredients (Modelcheck.Explore's
   [`Dpor_sym_memo] memo key).  [sym_events_sig] is the rolling
   relabeled digest maintained by [sym_note]; [sym_rank] exposes the
   first-occurrence ranks so the caller can build its canonical process
   order without walking the event list. *)

let uids s = s.uid
let sym_events_sig s = s.sym_sig

let sym_rank s pid =
  if pid < 0 || pid >= Array.length s.procs then
    invalid_arg "Session.sym_rank: no such process";
  s.sym_rank_of.(pid)

let mut_stamp s pid =
  if pid < 0 || pid >= Array.length s.procs then
    invalid_arg "Session.mut_stamp: no such process";
  s.procs.(pid).stamp

(* Where a [proc_sym_sig] walk stopped (see the .mli); immutable, so
   the explorer's slots share them *)
type sig_cursor = {
  c_incs : incarnation list;
  c_pos : int;
  c_acc : int;
  c_digest : int;
}

let sig_start = { c_incs = []; c_pos = 0; c_acc = 0; c_digest = 0 }
let sig_digest c = c.c_digest

let proc_sym_sig s pid cur ~hash_value ~hash_uid =
  if not s.undo then
    invalid_arg "Session.proc_sym_sig: session is not in undo mode";
  if pid < 0 || pid >= Array.length s.procs then
    invalid_arg "Session.proc_sym_sig: no such process";
  let ps = s.procs.(pid) in
  let acc = ref 0 in
  let fold_status st =
    match st with
    | Idle -> 1
    | Announced (uid, op) ->
        Value.mix (Value.mix 2 (hash_uid uid)) (Hashtbl.hash op)
    | Completed (uid, op, v) ->
        Value.mix
          (Value.mix (Value.mix 3 (hash_uid uid)) (Hashtbl.hash op))
          (hash_value v)
  in
  let fold_ops ops =
    acc := Value.mix !acc (List.length ops);
    List.iter (fun op -> acc := Value.mix !acc (Hashtbl.hash op)) ops
  in
  let fold_log inc from =
    for i = from to inc.log_len - 1 do
      match inc.log.(i) with
      | E_resp v -> acc := Value.mix !acc (Value.mix 0x31 (hash_value v))
      | E_uid u -> acc := Value.mix !acc (Value.mix 0x32 (hash_uid u))
      | E_pending p -> acc := Value.mix !acc (Value.mix 0x33 (Hashtbl.hash p))
    done
  in
  (* incs head = current incarnation; fold oldest first *)
  let rec go = function
    | [] -> ()
    | inc :: tl ->
        go tl;
        acc := Value.mix !acc (if inc.restart then 0x21 else 0x22);
        fold_ops inc.i_todo;
        acc := Value.mix !acc (fold_status inc.i_status);
        acc := Value.mix !acc (if inc.i_rec_started then 1 else 0);
        fold_log inc 0
  in
  (* only the head's log grows, and a log entry is overwritten only
     after a rewind below it: a cursor cut on this path (see the .mli)
     for this very list, at or before the log's end, folded a prefix *)
  let pos = match ps.incs with inc :: _ -> inc.log_len | [] -> 0 in
  (match ps.incs with
  | inc :: _ when cur.c_incs == ps.incs && cur.c_pos <= pos ->
      acc := cur.c_acc;
      fold_log inc cur.c_pos
  | _ -> go ps.incs);
  let c_acc = !acc in
  acc := Value.mix !acc (fold_status ps.status);
  let flags =
    (if ps.in_recovery then 1 else 0)
    lor (if ps.rec_started then 2 else 0)
    lor (if ps.l_runnable then 4 else 0)
    lor if ps.l_done then 8 else 0
  in
  fold_ops ps.todo;
  acc := Value.mix !acc (Value.mix ps.cur_steps flags);
  { c_incs = ps.incs; c_pos = pos; c_acc; c_digest = !acc }
