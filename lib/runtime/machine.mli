open Nvm

(** Memory-model dispatch: applies primitive requests to the store.

    The paper analyses its algorithms in the abstract {e private-cache}
    model (primitive operations persist immediately) and argues in
    Section 6 that the results carry over to the {e shared-cache} model
    after the standard persist-instruction transformation.  A [Machine.t]
    selects one of the two models and provides the single entry point
    ({!apply}) the scheduler uses to execute a process's next step. *)

type model = Private_cache | Shared_cache

type t

val create : ?model:model -> unit -> t
(** Fresh machine with an empty store.  Default model: [Private_cache]. *)

val model : t -> model
val mem : t -> Mem.t

val alloc_shared : t -> string -> Value.t -> Loc.t
val alloc_private : t -> pid:int -> string -> Value.t -> Loc.t

val apply : t -> Prim.request -> Value.t
(** Execute one primitive step.  In the private-cache model requests hit
    the NVM directly and [Persist]/[Fence] are no-ops; in the shared-cache
    model they go through the volatile cache. *)

val peek : t -> Loc.t -> Value.t
(** Read the current (cache-coherent) value without counting a step; for
    drivers, checkers and statistics only. *)

val crash : t -> index:int -> Fault_model.wipe -> unit
(** Memory-side effect of a system-wide crash; a no-op in the
    private-cache model, where everything is already persistent.  In
    the shared-cache model the dirty cache lines are written back as
    the wipe dictates and the cache is discarded: [Keep keep] writes
    back exactly the lines [keep] accepts; [Seeded (fault, seed)]
    applies [fault] with randomness drawn from [Prng.stream seed
    ~index], where [index] is the 0-based crash number of the run — so
    every crash's write-back is independently replayable (the undo
    engine rewinds crash counters and gets the identical NVM image
    back). *)

val steps : t -> int
(** Number of primitive steps applied since creation. *)

val nvm_snapshot : t -> Mem.snapshot
(** Snapshot of the {e non-volatile} state only — what survives a crash.
    In the shared-cache model, dirty cache lines are not included. *)

(** {1 Incremental checkpointing}

    The undo engine's machine-level hooks.  With the store's write
    journal enabled ({!set_journal}), a mark captures the full machine
    state in O(dirty-cache-lines) — the NVM side is a journal position
    ({!Nvm.Mem.mark}) — and {!rewind} restores it in
    O(writes-since-mark).  Marks are mutable: a caller that checkpoints
    at every DFS node refills one pooled mark per depth with
    {!mark_into}.  Marks are LIFO, inheriting {!Nvm.Mem.rewind}'s
    discipline. *)

val set_journal : t -> bool -> unit
(** Enable/disable the store's write journal (see {!Nvm.Mem.set_journal}). *)

type mark

val mark : t -> mark
(** A fresh mark of the current state: [mark_into] on a new mark. *)

val mark_into : t -> mark -> unit
(** Overwrite a mark with the journal position, step counter and
    (shared-cache model) the volatile dirty set.  Requires the journal
    to be on.  Allocation-free in the private-cache model. *)

val rewind : t -> mark -> unit
(** Roll the store, step counter and cache back to [mark]. *)
