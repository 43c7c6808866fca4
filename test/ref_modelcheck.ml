(* Deliberately naive references for the explorer and the shrinker, the
   oracles their differential tests compare against.

   The reference explorer has no memo, no reduction, no undo journal and
   no incremental checker: every DFS node rebuilds the initial
   configuration through [mk] and replays its decision sequence through
   the public Session API.  Only the search family is shared with the
   product — crash child first, then runnable pids ascending, and a step
   costs one switch exactly when it preempts a still-runnable process —
   so the two must enumerate the same delay-bounded executions.  Leaves
   are judged by the batch checker, and shared configurations are
   counted pairwise with Mem.equal_shared over full snapshots rather
   than by fingerprint. *)

open Nvm
open History
open Sched
module E = Modelcheck.Explore

type outcome = {
  executions : int;
  truncated : int;
  violations : E.violation list;  (** every violating leaf, DFS order *)
  distinct_shared_configs : int;
}

let explore ~mk ~workloads (cfg : E.config) =
  let executions = ref 0 and truncated = ref 0 and violations = ref [] in
  (* hash_shared -> snapshots pairwise non-equivalent to each other *)
  let configs = Hashtbl.create 64 and n_configs = ref 0 in
  let see mem =
    let s = Mem.snapshot mem in
    let h = Mem.hash_shared s in
    let bucket = Option.value (Hashtbl.find_opt configs h) ~default:[] in
    if not (List.exists (Mem.equal_shared s) bucket) then begin
      Hashtbl.replace configs h (s :: bucket);
      incr n_configs
    end
  in
  (* [rev] is the decision sequence, newest first *)
  let rec dfs rev cur switches crashes =
    let machine, inst = mk () in
    let session = Session.create ~policy:cfg.policy machine inst ~workloads in
    List.iter
      (function
        | Decision.Step pid -> Session.step session pid
        | Decision.Crash -> Session.crash session Fault_model.keep_all)
      (List.rev rev);
    see (Runtime.Machine.mem machine);
    let runnable = Session.runnable session in
    if runnable = [] || Session.steps session >= cfg.max_steps then begin
      if runnable = [] then incr executions else incr truncated;
      let history = Session.history session in
      let verdict =
        match Session.anomalies session with
        | a :: _ -> Lin_check.Violation ("driver anomaly: " ^ a)
        | [] -> Lin_check.check inst.Obj_inst.spec history
      in
      match verdict with
      | Lin_check.Ok_linearizable _ -> ()
      | Lin_check.Violation msg ->
          violations := { E.decisions = List.rev rev; history; msg } :: !violations
    end
    else begin
      if crashes < cfg.crash_budget then
        dfs (Decision.Crash :: rev) None switches (crashes + 1);
      List.iter
        (fun pid ->
          let cost =
            match cur with
            | Some c when c <> pid && List.mem c runnable -> 1
            | _ -> 0
          in
          if switches + cost <= cfg.switch_budget then
            dfs (Decision.Step pid :: rev) (Some pid) (switches + cost) crashes)
        runnable
    end
  in
  dfs [] None 0 0;
  {
    executions = !executions;
    truncated = !truncated;
    violations = List.rev !violations;
    distinct_shared_configs = !n_configs;
  }

(* The reference shrinker: greedy single deletion straight over
   Shrink.reproduces, restarting from the front after every deletion
   that keeps the violation, until none does.  Returns the minimised
   decisions with the history and message of their reproduction. *)
let minimise ~mk ~workloads decisions =
  let repro ds = Shrink.reproduces ~mk ~workloads ds in
  let rec pass cur found k =
    if k >= List.length cur then Some (cur, found)
    else
      let candidate = List.filteri (fun i _ -> i <> k) cur in
      match repro candidate with
      | Some found' -> pass candidate found' 0
      | None -> pass cur found (k + 1)
  in
  Option.bind (repro decisions) (fun found -> pass decisions found 0)
