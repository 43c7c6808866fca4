(* Tests for the Session/Driver protocol: event bookkeeping, crash
   handling, verdict stability, policies, schedulers and crash plans. *)

open Nvm
open History
open Sched

let i n = Value.Int n

let test_driver_sequential () =
  let machine, inst = Test_support.mk_drw ~n:1 () in
  let res =
    Driver.run machine inst
      ~workloads:[| [ Spec.write_op (i 4); Spec.read_op ] |]
      Driver.default_config
  in
  Alcotest.(check int) "no crashes" 0 res.crashes;
  Alcotest.(check bool) "complete" false res.incomplete;
  Alcotest.(check int) "4 events" 4 (List.length res.history);
  Test_support.assert_ok inst res ~ctx:"sequential"

let test_driver_step_budget () =
  let machine, inst = Test_support.mk_drw ~n:1 () in
  let cfg = { Driver.default_config with max_steps = 3 } in
  let res =
    Driver.run machine inst ~workloads:[| [ Spec.write_op (i 4) ] |] cfg
  in
  Alcotest.(check bool) "flagged incomplete" true res.incomplete;
  Alcotest.(check int) "stopped at budget" 3 res.steps

let test_session_runnable_and_steps () =
  let machine, inst = Test_support.mk_dcas ~n:2 () in
  let session =
    Session.create machine inst
      ~workloads:[| [ Spec.read_op ]; [ Spec.read_op ] |]
  in
  Alcotest.(check (list int)) "both runnable" [ 0; 1 ] (Session.runnable session);
  Session.step session 0;
  Alcotest.(check int) "one step" 1 (Session.steps session);
  (* drive everything *)
  let rec drain () =
    match Session.runnable session with
    | [] -> ()
    | pid :: _ ->
        Session.step session pid;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "finished" true (Session.finished session)

let test_session_step_not_runnable () =
  let machine, inst = Test_support.mk_dcas ~n:1 () in
  let session = Session.create machine inst ~workloads:[| [] |] in
  match Session.step session 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "stepping a finished process must fail"

let test_crash_restarts_all () =
  let machine, inst = Test_support.mk_drw ~n:2 () in
  let session =
    Session.create machine inst
      ~workloads:[| [ Spec.write_op (i 1) ]; [ Spec.write_op (i 2) ] |]
  in
  Session.step session 0;
  Session.step session 0;
  Session.crash session Fault_model.keep_all;
  Alcotest.(check int) "one crash" 1 (Session.crashes session);
  Alcotest.(check bool) "crash event recorded" true
    (List.mem Event.Crash (Session.history session));
  (* both processes must be alive again (recovery or fresh client) *)
  Alcotest.(check (list int)) "both restarted" [ 0; 1 ]
    (Session.runnable session)

(* Verdict stability: no operation instance ever gets two outcome events,
   no matter how many crashes strike. *)
let test_verdict_stability () =
  for seed = 1 to 60 do
    let prng = Dtc_util.Prng.create seed in
    let machine, inst = Test_support.mk_drw ~n:3 () in
    let workloads =
      Workload.register (Dtc_util.Prng.split prng) ~procs:3 ~ops_per_proc:3
        ~values:3
    in
    let cfg =
      Driver.seeded_config ~max_steps:20_000 ~max_crashes:4 ~crash_prob:0.1
        prng
    in
    let res = Driver.run machine inst ~workloads cfg in
    Hashtbl.iter
      (fun uid count ->
        if count > 1 then
          Alcotest.failf "seed %d: op #%d has %d outcomes@.%a" seed uid count
            Event.pp_history res.history)
      (Test_support.outcomes_per_uid res.history)
  done

(* With Give_up, a failed operation is skipped: the number of Rec_fail
   events for distinct uids equals the number of abandoned ops. *)
let test_giveup_skips () =
  (* Crash p0 exactly at its first step: the write cannot have started,
     recovery must fail, Give_up abandons it. *)
  let machine, inst = Test_support.mk_drw ~n:1 () in
  let cfg =
    {
      Driver.default_config with
      policy = Session.Give_up;
      crash_plan = Crash_plan.at_steps [ 1 ];
    }
  in
  let res =
    Driver.run machine inst
      ~workloads:[| [ Spec.write_op (i 1); Spec.read_op ] |]
      cfg
  in
  Test_support.assert_ok inst res ~ctx:"giveup";
  (* the read must still have completed *)
  let reads =
    List.filter
      (function
        | Event.Ret { v; _ } -> not (Value.equal v Spec.ack) | _ -> false)
      res.history
  in
  Alcotest.(check bool) "a read completed" true (List.length reads >= 1)

let test_retry_reinvokes () =
  let machine, inst = Test_support.mk_drw ~n:1 () in
  let cfg =
    {
      Driver.default_config with
      policy = Session.Retry;
      crash_plan = Crash_plan.at_steps [ 1 ];
    }
  in
  let res =
    Driver.run machine inst ~workloads:[| [ Spec.write_op (i 1) ] |] cfg
  in
  Test_support.assert_ok inst res ~ctx:"retry";
  (* the retried write appears as a second instance and completes *)
  let invs =
    List.length
      (List.filter (function Event.Inv _ -> true | _ -> false) res.history)
  in
  let rets =
    List.length
      (List.filter (function Event.Ret _ -> true | _ -> false) res.history)
  in
  Alcotest.(check bool) "second instance invoked" true (invs >= 2);
  Alcotest.(check bool) "eventually completed" true (rets >= 1)

(* --- schedulers --- *)

let test_round_robin_cycles () =
  let s = Schedule.round_robin () in
  let picks = List.init 6 (fun k -> s.Schedule.choose ~runnable:[ 0; 1; 2 ] ~step:k) in
  Alcotest.(check (list int)) "cycle" [ 0; 1; 2; 0; 1; 2 ] picks

let test_round_robin_skips_dead () =
  let s = Schedule.round_robin () in
  let a = s.Schedule.choose ~runnable:[ 1; 3 ] ~step:0 in
  let b = s.Schedule.choose ~runnable:[ 1; 3 ] ~step:1 in
  let c = s.Schedule.choose ~runnable:[ 1; 3 ] ~step:2 in
  Alcotest.(check (list int)) "skips" [ 1; 3; 1 ] [ a; b; c ]

let test_scripted () =
  let s = Schedule.scripted [ 2; 2; 0 ] in
  Alcotest.(check int) "first" 2 (s.Schedule.choose ~runnable:[ 0; 1; 2 ] ~step:0);
  Alcotest.(check int) "second" 2 (s.Schedule.choose ~runnable:[ 0; 1; 2 ] ~step:1);
  (* 0 not runnable: falls through to head of runnable *)
  Alcotest.(check int) "skips non-runnable" 1
    (s.Schedule.choose ~runnable:[ 1; 2 ] ~step:2);
  (* script exhausted *)
  Alcotest.(check int) "fallback" 1 (s.Schedule.choose ~runnable:[ 1; 2 ] ~step:3)

let test_solo () =
  let s = Schedule.solo 1 in
  Alcotest.(check int) "prefers 1" 1 (s.Schedule.choose ~runnable:[ 0; 1 ] ~step:0);
  Alcotest.(check int) "falls back" 0 (s.Schedule.choose ~runnable:[ 0; 2 ] ~step:1)

let test_random_schedule_picks_runnable () =
  let prng = Dtc_util.Prng.create 5 in
  let s = Schedule.random prng in
  for step = 0 to 100 do
    let runnable = [ 1; 4; 7 ] in
    let p = s.Schedule.choose ~runnable ~step in
    if not (List.mem p runnable) then Alcotest.fail "picked non-runnable"
  done

(* --- crash plans --- *)

let test_at_steps_fires_once () =
  let plan = Crash_plan.at_steps [ 5 ] in
  let fired = ref 0 in
  for step = 0 to 10 do
    if plan.Crash_plan.should_crash ~step then incr fired
  done;
  Alcotest.(check int) "once" 1 !fired

(* duplicate entries are distinct crash events: [at_steps [4; 4]] fires
   on two consecutive consults (a sort_uniq here once silently dropped
   the second crash) *)
let test_at_steps_duplicates_fire_twice () =
  let plan = Crash_plan.at_steps [ 4; 4 ] in
  let fired = ref 0 in
  for step = 0 to 10 do
    if plan.Crash_plan.should_crash ~step then incr fired
  done;
  Alcotest.(check int) "both duplicates fire" 2 !fired

let test_random_plan_capped () =
  let prng = Dtc_util.Prng.create 9 in
  let plan = Crash_plan.faulted ~max_crashes:2 ~prob:1.0 prng in
  let fired = ref 0 in
  for step = 0 to 100 do
    if plan.Crash_plan.should_crash ~step then incr fired
  done;
  Alcotest.(check int) "capped" 2 !fired

let test_none_never_fires () =
  for step = 0 to 50 do
    if Crash_plan.none.Crash_plan.should_crash ~step then
      Alcotest.fail "none fired"
  done

(* --- workload generators --- *)

let test_workload_shapes () =
  let prng = Dtc_util.Prng.create 5 in
  let wl = Workload.register (Dtc_util.Prng.split prng) ~procs:4 ~ops_per_proc:6 ~values:3 in
  Alcotest.(check int) "procs" 4 (Array.length wl);
  Array.iter (fun ops -> Alcotest.(check int) "ops" 6 (List.length ops)) wl;
  Array.iter
    (List.iter (fun (o : Spec.op) ->
         match (o.Spec.name, o.Spec.args) with
         | "read", [||] -> ()
         | "write", [| Value.Int v |] ->
             Alcotest.(check bool) "value in range" true (v >= 0 && v < 3)
         | _ -> Alcotest.fail "unexpected op"))
    wl

let test_workload_faa_deltas_positive () =
  let prng = Dtc_util.Prng.create 6 in
  let wl = Workload.faa (Dtc_util.Prng.split prng) ~procs:3 ~ops_per_proc:10 ~max_delta:4 in
  Array.iter
    (List.iter (fun (o : Spec.op) ->
         match (o.Spec.name, o.Spec.args) with
         | "faa", [| Value.Int d |] ->
             Alcotest.(check bool) "delta in [1,4]" true (d >= 1 && d <= 4)
         | "read", [||] -> ()
         | _ -> Alcotest.fail "unexpected op"))
    wl

let test_workload_determinism () =
  let mk seed =
    Workload.queue (Dtc_util.Prng.create seed) ~procs:3 ~ops_per_proc:5 ~values:4
  in
  Alcotest.(check bool) "same seed, same workload" true (mk 42 = mk 42);
  Alcotest.(check bool) "different seeds differ" true (mk 42 <> mk 43)

(* --- undo-mode checkpointing --- *)

let undo_workloads =
  [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]

let test_undo_mark_rewind_roundtrip () =
  let machine, inst = Test_support.mk_dcas ~n:2 () in
  let session = Session.create ~undo:true machine inst ~workloads:undo_workloads in
  let fp () =
    let m = Runtime.Machine.mem machine in
    (Mem.live_full_a m, Mem.live_full_b m)
  in
  let dig0 = Session.state_digest session and fp0 = fp () in
  let runnable0 = Session.runnable session in
  let m = Session.mark session in
  (* advance through steps AND a crash (recovery restarts every fiber) *)
  Session.step session 0;
  Session.step session 1;
  Session.crash session Fault_model.keep_all;
  (match Session.runnable session with
  | pid :: _ -> Session.step session pid
  | [] -> ());
  Alcotest.(check bool) "configuration moved" true
    (Session.state_digest session <> dig0 || fp () <> fp0);
  Session.rewind session m;
  Alcotest.(check int) "state digest restored" dig0
    (Session.state_digest session);
  Alcotest.(check bool) "memory fingerprint restored" true (fp () = fp0);
  Alcotest.(check (list int)) "runnable set restored" runnable0
    (Session.runnable session);
  Alcotest.(check int) "step counter restored" 0 (Session.steps session);
  Alcotest.(check int) "crash counter restored" 0 (Session.crashes session);
  Alcotest.(check int) "history restored" 2
    (List.length (Session.history session));
  (* the rolled-back configuration is live: ghost replay rebuilds the
     discarded fibers on demand and the run completes *)
  let rec drain () =
    match Session.runnable session with
    | [] -> ()
    | pid :: _ ->
        Session.step session pid;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "finished after rewind" true (Session.finished session)

let test_undo_rewind_is_repeatable () =
  (* rewinding and re-running the same decisions must reproduce the same
     digest — the property the explorer's memoisation keys depend on *)
  let machine, inst = Test_support.mk_dcas ~n:2 () in
  let session = Session.create ~undo:true machine inst ~workloads:undo_workloads in
  let m = Session.mark session in
  let run () =
    Session.step session 0;
    Session.crash session Fault_model.keep_all;
    (match Session.runnable session with
    | pid :: _ -> Session.step session pid
    | [] -> ());
    Session.state_digest session
  in
  let d1 = run () in
  Session.rewind session m;
  let d2 = run () in
  Alcotest.(check int) "same decisions, same digest" d1 d2

let test_mark_requires_undo_mode () =
  let machine, inst = Test_support.mk_dcas ~n:1 () in
  let session =
    Session.create machine inst ~workloads:[| [ Spec.read_op ] |]
  in
  match Session.mark session with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mark must require undo mode"

(* Property: in undo mode, mark/rewind restores the whole configuration
   — values, counters, history {e and} the space high-waters — under
   random step and crash traffic on both memory models, with nested LIFO
   marks, marks refilled in place and marks recycled after a rewind.
   After each rewind the same decisions are re-run and must reproduce
   the same configuration, history included. *)

type mr_action = Mr_step of int | Mr_crash | Mr_mark | Mr_refill | Mr_rewind

type mr_case = {
  obj : int;  (* 0 drw, 1 dcas, 2 dqueue *)
  shared : bool;
  fault : Fault_model.t;
  seed : int;
  actions : mr_action list;
}

type mr_obs = {
  o_digest : int;
  o_events : int;
  o_history : Event.t list;
  o_steps : int;
  o_crashes : int;
  o_uids : int;
  o_runnable : int list;
  o_nvm : Mem.snapshot;
  o_max_bits : int;
  o_view : Value.t list;  (* cache-coherent contents of every cell *)
}

let mr_observe machine session =
  let mem = Runtime.Machine.mem machine in
  {
    o_digest = Session.state_digest session;
    o_events = Session.event_count session;
    o_history = Session.history session;
    o_steps = Session.steps session;
    o_crashes = Session.crashes session;
    o_uids = Session.uids session;
    o_runnable = Session.runnable session;
    o_nvm = Mem.snapshot (Runtime.Machine.mem machine);
    o_max_bits = Mem.max_shared_bits mem;
    o_view =
      List.init (Mem.n_locs mem) (fun id ->
          Runtime.Machine.peek machine (Mem.loc_by_id mem id));
  }

let mr_same a b =
  a.o_digest = b.o_digest && a.o_events = b.o_events
  && a.o_history = b.o_history && a.o_steps = b.o_steps
  && a.o_crashes = b.o_crashes && a.o_uids = b.o_uids
  && a.o_runnable = b.o_runnable
  && Mem.equal_full a.o_nvm b.o_nvm
  && a.o_max_bits = b.o_max_bits
  && List.equal Value.equal a.o_view b.o_view

let mr_run c =
  let model =
    if c.shared then Runtime.Machine.Shared_cache else Runtime.Machine.Private_cache
  in
  let (machine, inst), workloads =
    match c.obj with
    | 0 ->
        ( Test_support.mk_drw ~persist:true ~model ~n:2 (),
          [| [ Spec.write_op (i 1); Spec.read_op ];
             [ Spec.write_op (i 2); Spec.read_op ] |] )
    | 1 ->
        ( Test_support.mk_dcas ~persist:true ~model ~n:2 (),
          [| [ Spec.cas_op (i 0) (i 1); Spec.cas_op (i 1) (i 2) ];
             [ Spec.cas_op (i 1) (i 0); Spec.cas_op (i 0) (i 2) ] |] )
    | _ ->
        ( Test_support.mk_dqueue ~persist:true ~model ~n:2 ~capacity:8 (),
          [| [ Spec.enq_op (i 1); Spec.deq_op ];
             [ Spec.enq_op (i 2); Spec.deq_op ] |] )
  in
  let session = Session.create ~undo:true machine inst ~workloads in
  let wipe = Fault_model.Seeded (c.fault, c.seed) in
  let observe () = mr_observe machine session in
  (* decisions applied so far, newest first, and their count *)
  let applied = ref [] and n_applied = ref 0 in
  let apply d =
    (match d with
    | `Step pid -> Session.step session pid
    | `Crash -> Session.crash session wipe);
    applied := d :: !applied;
    incr n_applied
  in
  let truncate k =
    applied := List.filteri (fun j _ -> j >= !n_applied - k) !applied;
    n_applied := k
  in
  (* open marks, newest first: (mark, observation, decisions at mark) *)
  let frames = ref [] and pool = ref [] and ok = ref true in
  let rewind () =
    match !frames with
    | [] -> ()
    | (m, o, k) :: rest ->
        let since = List.rev (List.filteri (fun j _ -> j < !n_applied - k) !applied) in
        let before = observe () in
        Session.rewind session m;
        ok := !ok && mr_same (observe ()) o;
        truncate k;
        List.iter apply since;
        ok := !ok && mr_same (observe ()) before;
        Session.rewind session m;
        ok := !ok && mr_same (observe ()) o;
        truncate k;
        frames := rest;
        pool := m :: !pool
  in
  List.iter
    (function
      | Mr_step k -> (
          match Session.runnable session with
          | [] -> ()
          | r -> apply (`Step (List.nth r (k mod List.length r))))
      | Mr_crash -> if Session.crashes session < 3 then apply `Crash
      | Mr_mark ->
          let m =
            match !pool with
            | m :: rest ->
                pool := rest;
                Session.mark_into session m;
                m
            | [] -> Session.mark session
          in
          frames := (m, observe (), !n_applied) :: !frames
      | Mr_refill -> (
          match !frames with
          | (m, _, _) :: rest ->
              Session.mark_into session m;
              frames := (m, observe (), !n_applied) :: rest
          | [] -> ())
      | Mr_rewind -> rewind ())
    c.actions;
  while !frames <> [] do
    rewind ()
  done;
  !ok

let mr_print c =
  Printf.sprintf "obj=%d shared=%b fault=%s seed=%d actions=[%s]" c.obj c.shared
    (Fault_model.to_string c.fault) c.seed
    (String.concat ";"
       (List.map
          (function
            | Mr_step k -> Printf.sprintf "s%d" k
            | Mr_crash -> "C"
            | Mr_mark -> "M"
            | Mr_refill -> "F"
            | Mr_rewind -> "R")
          c.actions))

let prop_mark_rewind_restores =
  let open QCheck.Gen in
  let action =
    frequency
      [
        (6, map (fun k -> Mr_step k) (int_bound 7));
        (1, return Mr_crash);
        (2, return Mr_mark);
        (1, return Mr_refill);
        (2, return Mr_rewind);
      ]
  in
  let case =
    map
      (fun (obj, shared, fault, seed, actions) ->
        { obj; shared; fault; seed; actions })
      (tup5 (int_bound 2) bool
         (oneofl
            Fault_model.
              [ Atomic; Drop { keep_prob = 0.5 }; Torn { granularity = 1 }; Reorder ])
         (int_bound 1_000_000) (list_size (int_bound 60) action))
  in
  QCheck.Test.make ~name:"undo mark/rewind restores the configuration"
    ~count:Test_support.qcheck_count (QCheck.make ~print:mr_print case) mr_run

(* [proc_sym_sig]'s resumed walk equals the full walk.  Random step,
   crash and rewind sequences on Dcas N=3 in undo mode, each step under
   a fresh mark as the explorer takes them, with per-depth per-process
   slots kept the explorer's way: an equal stamp here or in the parent
   slot reuses that cursor, anything else resumes from the PARENT's
   cursor (this depth's slot may hold a sibling's log entries).  After
   every step or crash each slot's digest must equal a walk from
   [sig_start], both self-keyed and relabeled through a random
   permutation.  Crashes start new incarnations, so the physical
   incarnation check and its full-walk fallback run too. *)
type rs_action = Rs_step of int | Rs_crash | Rs_rewind
type rs_slot = { mutable rs_stamp : int; mutable rs_cur : Session.sig_cursor }

let rs_run (inv, actions) =
  let n = 3 in
  let machine, inst = Test_support.mk_dcas ~n () in
  let workloads =
    [| [ Spec.cas_op (i 0) (i 1); Spec.cas_op (i 1) (i 2) ];
       [ Spec.cas_op (i 1) (i 0); Spec.cas_op (i 0) (i 2) ];
       [ Spec.cas_op (i 0) (i 2); Spec.cas_op (i 2) (i 1) ] |]
  in
  let session = Session.create ~undo:true machine inst ~workloads in
  let rank = Array.make n 0 in
  Array.iteri (fun r p -> rank.(p) <- r) inv;
  (* slot [2p] self-keyed, [2p + 1] relabeled through [inv] *)
  let walk ix from =
    let pid = ix / 2 in
    if ix mod 2 = 0 then
      Session.proc_sym_sig session pid from
        ~hash_value:(fun v -> Modelcheck.Sym.self_key ~n ~pid ~seed:5 v)
        ~hash_uid:(fun u -> if u < n then -1 else u)
    else
      Session.proc_sym_sig session pid from
        ~hash_value:(fun v -> Modelcheck.Sym.hash_perm ~n ~inv ~seed:7 v)
        ~hash_uid:(fun u -> if u < n then rank.(u) else u)
  in
  let max_depth = List.length actions + 1 in
  let slots =
    Array.init max_depth (fun _ ->
        Array.init (2 * n) (fun _ ->
            { rs_stamp = -1; rs_cur = Session.sig_start }))
  in
  let marks = Array.make max_depth None in
  let ok = ref true in
  let fill d =
    for ix = 0 to (2 * n) - 1 do
      let me = slots.(d).(ix) and stamp = Session.mut_stamp session (ix / 2) in
      if me.rs_stamp <> stamp then begin
        let up = slots.(max 0 (d - 1)).(ix) in
        me.rs_cur <-
          (if d > 0 && up.rs_stamp = stamp then up.rs_cur
           else walk ix (if d = 0 then Session.sig_start else up.rs_cur));
        me.rs_stamp <- stamp
      end;
      ok :=
        !ok
        && Session.sig_digest me.rs_cur
           = Session.sig_digest (walk ix Session.sig_start)
    done
  in
  let depth = ref 0 in
  let push apply =
    marks.(!depth) <- Some (Session.mark session);
    apply ();
    incr depth;
    fill !depth
  in
  fill 0;
  List.iter
    (function
      | Rs_step k -> (
          match Session.runnable session with
          | [] -> ()
          | r ->
              let pid = List.nth r (k mod List.length r) in
              push (fun () -> Session.step session pid))
      | Rs_crash ->
          if Session.crashes session < 2 then
            push (fun () -> Session.crash session Fault_model.keep_all)
      | Rs_rewind ->
          if !depth > 0 then begin
            decr depth;
            Option.iter (Session.rewind session) marks.(!depth)
          end)
    actions;
  !ok

let prop_sym_sig_resume_is_full_walk =
  let open QCheck.Gen in
  let action =
    frequency
      [
        (6, map (fun k -> Rs_step k) (int_bound 5));
        (1, return Rs_crash);
        (3, return Rs_rewind);
      ]
  in
  let print (inv, actions) =
    Printf.sprintf "inv=[%s] actions=[%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int inv)))
      (String.concat ";"
         (List.map
            (function
              | Rs_step k -> Printf.sprintf "s%d" k
              | Rs_crash -> "C"
              | Rs_rewind -> "R")
            actions))
  in
  QCheck.Test.make ~name:"proc_sym_sig: resumed walk = full walk"
    ~count:Test_support.qcheck_count
    (QCheck.make ~print
       (pair (map Array.of_list (shuffle_l [ 0; 1; 2 ]))
          (list_size (int_bound 60) action)))
    rs_run

(* The one seeding rule: [Driver.seeded_config] splits the schedule's
   stream first and the crash plan's second.  Its runs must equal runs
   whose config is built by hand in that order; the reverse order must
   give some other history, or this test could not tell the two apart. *)
let test_seeded_config_order () =
  let workloads =
    Workload.register (Dtc_util.Prng.create 3) ~procs:3 ~ops_per_proc:3
      ~values:3
  in
  let run cfg =
    let machine, inst = Test_support.mk_drw ~n:3 () in
    (Driver.run machine inst ~workloads cfg).Driver.history
  in
  let by_hand ~schedule_first seed =
    let prng = Dtc_util.Prng.create seed in
    let first = Dtc_util.Prng.split prng in
    let second = Dtc_util.Prng.split prng in
    let sched_stream, crash_stream =
      if schedule_first then (first, second) else (second, first)
    in
    {
      Driver.schedule = Schedule.random sched_stream;
      crash_plan = Crash_plan.faulted ~max_crashes:2 ~prob:0.1 crash_stream;
      policy = Session.Retry;
      max_steps = 20_000;
    }
  in
  let reversed_differs = ref false in
  for seed = 1 to 20 do
    let seeded =
      run
        (Driver.seeded_config ~max_steps:20_000 ~max_crashes:2 ~crash_prob:0.1
           (Dtc_util.Prng.create seed))
    in
    if seeded <> run (by_hand ~schedule_first:true seed) then
      Alcotest.failf "seed %d: seeded_config differs from schedule-first" seed;
    if seeded <> run (by_hand ~schedule_first:false seed) then
      reversed_differs := true
  done;
  Alcotest.(check bool) "the crash-first order gives another history" true
    !reversed_differs

let suites =
  [
    ( "sched.driver",
      [
        Alcotest.test_case "sequential run" `Quick test_driver_sequential;
        Alcotest.test_case "step budget" `Quick test_driver_step_budget;
        Alcotest.test_case "giveup skips failed op" `Quick test_giveup_skips;
        Alcotest.test_case "retry re-invokes" `Quick test_retry_reinvokes;
        Alcotest.test_case "seeded_config: schedule first, crashes second"
          `Quick test_seeded_config_order;
      ] );
    ( "sched.session",
      [
        Alcotest.test_case "runnable/steps" `Quick test_session_runnable_and_steps;
        Alcotest.test_case "step not runnable rejected" `Quick
          test_session_step_not_runnable;
        Alcotest.test_case "crash restarts all" `Quick test_crash_restarts_all;
        Alcotest.test_case "verdict stability" `Slow test_verdict_stability;
        Alcotest.test_case "undo mark/rewind roundtrip" `Quick
          test_undo_mark_rewind_roundtrip;
        Alcotest.test_case "undo rewind repeatable" `Quick
          test_undo_rewind_is_repeatable;
        Alcotest.test_case "mark requires undo mode" `Quick
          test_mark_requires_undo_mode;
        QCheck_alcotest.to_alcotest prop_mark_rewind_restores;
        QCheck_alcotest.to_alcotest prop_sym_sig_resume_is_full_walk;
      ] );
    ( "sched.schedule",
      [
        Alcotest.test_case "round robin" `Quick test_round_robin_cycles;
        Alcotest.test_case "round robin skips" `Quick test_round_robin_skips_dead;
        Alcotest.test_case "scripted" `Quick test_scripted;
        Alcotest.test_case "solo" `Quick test_solo;
        Alcotest.test_case "random picks runnable" `Quick
          test_random_schedule_picks_runnable;
      ] );
    ( "sched.workload",
      [
        Alcotest.test_case "shapes and ranges" `Quick test_workload_shapes;
        Alcotest.test_case "faa deltas" `Quick test_workload_faa_deltas_positive;
        Alcotest.test_case "determinism" `Quick test_workload_determinism;
      ] );
    ( "sched.crash_plan",
      [
        Alcotest.test_case "at_steps once" `Quick test_at_steps_fires_once;
        Alcotest.test_case "at_steps duplicates fire twice" `Quick
          test_at_steps_duplicates_fire_twice;
        Alcotest.test_case "random capped" `Quick test_random_plan_capped;
        Alcotest.test_case "none" `Quick test_none_never_fires;
      ] );
  ]
