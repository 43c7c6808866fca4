(* Test oracles: each computes a second time, from public values only,
   something lib computes on its own path, so a test can compare the
   two. *)

open Nvm
open History
open Sched

(* ---------------------------------------------------------------- *)
(* Sequential specifications *)

(* Responses of a sequential history run from the initial state. *)
let run_spec (spec : Spec.t) ops =
  let _, responses =
    List.fold_left
      (fun (state, acc) o ->
        let state', r = spec.step state o in
        (state', r :: acc))
      (spec.init, []) ops
  in
  List.rev responses

(* ---------------------------------------------------------------- *)
(* Store snapshots, read through [Mem.snapshot_cells] *)

(* A hash consistent with [Mem.equal_shared]: it folds the shared cells
   only. *)
let hash_shared snap =
  Array.fold_left
    (fun h ((loc : Loc.t), v) ->
      if Loc.is_shared loc then (h * 1000003) lxor Value.hash_seeded 0 v
      else h)
    5381 (Mem.snapshot_cells snap)

(* Equality over all cells, shared and private: the oracle for
   [Mem.rewind]. *)
let equal_full a b =
  let ca = Mem.snapshot_cells a and cb = Mem.snapshot_cells b in
  Array.length ca = Array.length cb
  && Array.for_all2 (fun (_, x) (_, y) -> Value.equal x y) ca cb

(* The shared-cell digest of a snapshot, by a full scan: the cells are
   allocated, in order, in a fresh store with no journal, whose
   [live_shared_a]/[live_shared_b] fold every cell instead of reading
   the accumulators the journaled store maintains. *)
let fingerprint_shared snap =
  let m = Mem.create () in
  Array.iter
    (fun ((loc : Loc.t), v) ->
      ignore (Mem.alloc m ~name:loc.name ~kind:loc.kind v : Loc.t))
    (Mem.snapshot_cells snap);
  (Mem.live_shared_a m, Mem.live_shared_b m)

(* ---------------------------------------------------------------- *)
(* Counterexample replay *)

(* "Prefix then free run" for a decision sequence, judged by the batch
   checker: [Some (history, msg)] iff the run violates.  The oracle for
   [Shrink.minimise], whose result must be greedy single deletion over
   this. *)
let reproduces ~mk ~workloads ?(policy = Session.Retry)
    ?(wipe = Fault_model.keep_all) ?(max_steps = 5_000) decisions =
  let machine, inst = mk () in
  let session = Session.create ~policy machine inst ~workloads in
  let r = Driver.replay ~wipe ~max_steps session decisions in
  let verdict =
    match Driver.anomaly_verdict r.anomalies with
    | Some v -> v
    | None -> Lin_check.check_with `Batch inst.Obj_inst.spec r.history
  in
  match verdict with
  | Lin_check.Violation msg -> Some (r.history, msg)
  | Lin_check.Ok_linearizable _ -> None
