open Nvm

type model = Private_cache | Shared_cache

type t = {
  model : model;
  mem : Mem.t;
  cache : Cache.t option;
  mutable steps : int;
}

let create ?(model = Private_cache) () =
  let mem = Mem.create () in
  let cache = match model with Private_cache -> None | Shared_cache -> Some (Cache.create mem) in
  { model; mem; cache; steps = 0 }

let model t = t.model
let mem t = t.mem

let alloc_shared t name init = Mem.alloc t.mem ~name ~kind:Loc.Shared init

let alloc_private t ~pid name init =
  Mem.alloc t.mem ~name ~kind:(Loc.Private pid) init

(* shared result constants: [apply] sits on the per-step hot path, and
   boxing a fresh [Bool] for every cas would allocate per step *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false

let vbool b = if b then vtrue else vfalse

let apply t (req : Prim.request) =
  t.steps <- t.steps + 1;
  match t.cache with
  | None -> (
      match req with
      | Read l -> Mem.read t.mem l
      | Write (l, v) ->
          Mem.write t.mem l v;
          Value.Unit
      | Cas (l, e, d) -> vbool (Mem.cas t.mem l e d)
      | Faa (l, d) -> Value.Int (Mem.faa t.mem l d)
      | Persist _ | Fence | Yield -> Value.Unit)
  | Some c -> (
      match req with
      | Read l -> Cache.read c l
      | Write (l, v) ->
          Cache.write c l v;
          Value.Unit
      | Cas (l, e, d) -> vbool (Cache.cas c l e d)
      | Faa (l, d) -> Value.Int (Cache.faa c l d)
      | Persist l ->
          Cache.persist c l;
          Value.Unit
      | Fence ->
          Cache.persist_all c;
          Value.Unit
      | Yield -> Value.Unit)

let peek t l =
  match t.cache with None -> Mem.read t.mem l | Some c -> Cache.read c l

let crash t ~index wipe =
  match t.cache with
  | None -> ()
  | Some c -> (
      match (wipe : Fault_model.wipe) with
      | Fault_model.Keep keep -> Cache.crash c ~keep
      | Fault_model.Seeded (fault, seed) ->
          (* one dedicated stream per crash: outcome depends only on
             (fault, seed, crash index, dirty set) *)
          let prng = Dtc_util.Prng.stream seed ~index in
          Cache.crash_faulted c ~fault ~prng)

let steps t = t.steps

let nvm_snapshot t = Mem.snapshot t.mem

(* ---- incremental checkpointing (undo engine) ---- *)

let set_journal t on = Mem.set_journal t.mem on

(* A mark is (store mark, step counter, shared-cache dirty set), all
   mutable so a pooled mark is refilled in place by [mark_into]. *)
type mark = {
  k_mem : Mem.mark;
  mutable k_steps : int;
  mutable k_dirty : (Loc.t * Value.t) list; (* shared-cache dirty set; [] otherwise *)
}

let mark_into t m =
  Mem.mark_into t.mem m.k_mem;
  m.k_steps <- t.steps;
  m.k_dirty <- (match t.cache with None -> [] | Some c -> Cache.entries c)

let mark t =
  let m = { k_mem = Mem.mark t.mem; k_steps = 0; k_dirty = [] } in
  mark_into t m;
  m

let rewind t m =
  Mem.rewind t.mem m.k_mem;
  t.steps <- m.k_steps;
  match t.cache with
  | None -> ()
  | Some c -> Cache.restore_entries c m.k_dirty
