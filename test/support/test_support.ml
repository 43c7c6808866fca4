(* Shared helpers for the test suites. *)

open Nvm
open History
open Sched

let value_testable : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal

let i n = Value.Int n

(* ---------------------------------------------------------------- *)
(* Instance factories: every object under test, built on a fresh
   machine.  [mk_*] return (machine, instance) as the model checker
   expects. *)

let mk name ?persist ?model ?capacity ?(n = 3) () =
  Objects.mk ?persist ?model ?capacity (Objects.find name) ~n ()

let mk_drw = mk "drw"
let mk_dcas = mk "dcas"
let mk_dmax = mk "dmax"
let mk_dcounter = mk "dcounter"
let mk_dfaa = mk "dfaa"
let mk_urw = mk "urw"
let mk_ucas = mk "ucas"

let mk_dqueue ?persist ?model ?(capacity = 32) ?n () =
  mk "dqueue" ?persist ?model ~capacity ?n ()

(* ---------------------------------------------------------------- *)
(* Torture runner: many seeded random runs with crashes; fails the test
   with a pretty-printed history on the first violation. *)

let run_one ?(policy = Session.Retry) ?(max_crashes = 2) ?(crash_prob = 0.05)
    ?fault ?(max_steps = 20_000) ~seed mk workloads =
  let machine, inst = mk () in
  let cfg =
    Driver.seeded_config ~policy ?fault ~max_steps ~max_crashes ~crash_prob
      (Dtc_util.Prng.create seed)
  in
  let res = Driver.run machine inst ~workloads cfg in
  (inst, res)

let assert_ok inst (res : Driver.result) ~ctx =
  if res.incomplete then
    Alcotest.failf "%s: run incomplete (step budget exhausted)" ctx;
  match Driver.check inst res with
  | Lin_check.Ok_linearizable _ -> ()
  | Lin_check.Violation msg ->
      Alcotest.failf "%s: %s@.history:@.%a" ctx msg Event.pp_history
        res.history

let torture ?policy ?max_crashes ?crash_prob ?fault ?max_steps ~trials
    ~name mk workloads_of_seed =
  for seed = 1 to trials do
    let workloads = workloads_of_seed seed in
    let inst, res =
      run_one ?policy ?max_crashes ?crash_prob ?fault ?max_steps ~seed mk
        workloads
    in
    assert_ok inst res ~ctx:(Printf.sprintf "%s (seed %d)" name seed)
  done

(* The exhaustive single-crash sweep: one crash-free run of the given
   deterministic schedule, then one run per step [k] of it with a crash
   at [k] applying [wipe] (default keep-all), each judged by
   [Driver.check]; recovery runs to completion under the same schedule.
   The schedule factory is invoked once per run, so stateful schedules
   like round-robin start fresh each time.  Linear in the schedule
   length, and exactly the shape of the Figure 2 construction. *)

type sweep = {
  executions : int;  (** runs that finished *)
  truncated : int;  (** runs cut by [max_steps] *)
  total_violations : int;  (** runs [Driver.check] rejects *)
}

let crash_points ~mk ~workloads ~schedule ?(policy = Session.Retry)
    ?(wipe = Fault_model.keep_all) ?(max_steps = 2_000) () =
  let executions = ref 0 and truncated = ref 0 and violations = ref 0 in
  let run_with crash_plan =
    let machine, inst = mk () in
    let r =
      Driver.run machine inst ~workloads
        { schedule = schedule (); crash_plan; policy; max_steps }
    in
    incr (if r.incomplete then truncated else executions);
    (match Driver.check inst r with
    | Lin_check.Violation _ -> incr violations
    | Lin_check.Ok_linearizable _ -> ());
    r.steps
  in
  (* the crash-free run also learns how many steps there are to crash at *)
  let total = run_with Crash_plan.none in
  for k = 0 to total - 1 do
    ignore (run_with { (Crash_plan.at_steps [ k ]) with wipe } : int)
  done;
  {
    executions = !executions;
    truncated = !truncated;
    total_violations = !violations;
  }

(* Crash-free sequential run of one process; returns the responses. *)
let solo_run mk ops =
  let machine, inst = mk () in
  let cfg = Driver.default_config in
  let res = Driver.run machine inst ~workloads:[| ops |] cfg in
  ( inst,
    res,
    List.filter_map
      (function Event.Ret { v; _ } -> Some v | _ -> None)
      res.history )

(* Count outcome events per uid; used to assert verdict stability. *)
let outcomes_per_uid history =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match (e : Event.t) with
      | Event.Ret { uid; _ } | Event.Rec_ret { uid; _ } | Event.Rec_fail { uid; _ }
        ->
          Hashtbl.replace tbl uid (1 + Option.value ~default:0 (Hashtbl.find_opt tbl uid))
      | Event.Inv _ | Event.Crash -> ())
    history;
  tbl

(* ---------------------------------------------------------------- *)
(* Code only tests run, over lib's public types; each keeps the tests
   it had in lib. *)

(* A total order on values. *)
let rec compare_value (a : Value.t) (b : Value.t) =
  let tag : Value.t -> int = function
    | Unit -> 0
    | Bool _ -> 1
    | Int _ -> 2
    | Str _ -> 3
    | Tup _ -> 4
    | Bot -> 5
  in
  match (a, b) with
  | Unit, Unit | Bot, Bot -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Tup x, Tup y ->
      let lx = Array.length x and ly = Array.length y in
      let rec go i =
        if i >= lx && i >= ly then 0
        else if i >= lx then -1
        else if i >= ly then 1
        else
          let c = compare_value x.(i) y.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
  | _, _ -> Int.compare (tag a) (tag b)

(* Same name and equal arguments. *)
let equal_op (a : Spec.op) (b : Spec.op) =
  String.equal a.name b.name
  && Array.length a.args = Array.length b.args
  && Array.for_all2 Value.equal a.args b.args

(* Responses of completed and recovered operations, in outcome order. *)
let responses history =
  List.filter_map
    (function
      | Event.Ret { v; _ } | Event.Rec_ret { v; _ } -> Some v
      | Event.Inv _ | Event.Crash | Event.Rec_fail _ -> None)
    history

(* Current footprint: the sum of the bit widths of the shared cells. *)
let shared_bits mem =
  let total = ref 0 in
  for id = 0 to Mem.n_locs mem - 1 do
    let loc = Mem.loc_by_id mem id in
    if Loc.is_shared loc then
      total := !total + (Value.hc_of (Mem.read mem loc)).bits
  done;
  !total

let pp_request fmt : Runtime.Prim.request -> unit =
  let pp_loc fmt (l : Loc.t) =
    match l.kind with
    | Shared -> Format.fprintf fmt "%s" l.name
    | Private p -> Format.fprintf fmt "%s<p%d>" l.name p
  in
  function
  | Read l -> Format.fprintf fmt "read %a" pp_loc l
  | Write (l, v) -> Format.fprintf fmt "write %a := %a" pp_loc l Value.pp v
  | Cas (l, e, d) ->
      Format.fprintf fmt "cas %a (%a -> %a)" pp_loc l Value.pp e Value.pp d
  | Faa (l, d) -> Format.fprintf fmt "faa %a += %d" pp_loc l d
  | Persist l -> Format.fprintf fmt "persist %a" pp_loc l
  | Fence -> Format.fprintf fmt "fence"
  | Yield -> Format.fprintf fmt "yield"

(* Does the request potentially modify a shared location? *)
let is_shared_write : Runtime.Prim.request -> bool = function
  | Write (l, _) | Cas (l, _, _) | Faa (l, _) -> Loc.is_shared l
  | Read _ | Persist _ | Fence | Yield -> false

(* Always [pid] when runnable, else round-robin among the rest. *)
let solo pid =
  let fallback = Schedule.round_robin () in
  let choose ~runnable ~step =
    if List.mem pid runnable then pid else fallback.choose ~runnable ~step
  in
  { Schedule.choose }

(* QCheck→Alcotest bridging is provided by qcheck-alcotest in the test
   executables; here we only centralise a default count. *)
let qcheck_count = 200
