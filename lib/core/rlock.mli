open Nvm
open Runtime

(** A recoverable mutual-exclusion lock (RME).

    The paper's introduction cites recoverable mutual exclusion (Golab &
    Ramaraju; Golab & Hendler) as the other setting where crash-recovery
    needs help from outside the operation.  This is the simplest correct
    RME lock on our machine: ownership lives in one NVM cell, acquired by
    CAS and released by a single store, so a crash can never leave the
    cell ambiguous — upon recovery, [holds] tells a process with
    certainty whether it still owns the critical section (the defining
    RME obligation), and the owner's recovery may re-enter to finish or
    undo its critical-section work.

    Progress: deadlock-free under any fair schedule (a spinning acquirer
    takes a [yield] step between attempts, so other processes keep
    running); not FCFS — starvation-free FCFS recoverable locks need
    substantially more machinery (tickets leak if a crash separates the
    fetch-and-add from persisting the ticket), which is exactly the
    subtlety the RME literature addresses. *)

type t

val create : ?persist:bool -> Machine.t -> t
(** [persist] inserts explicit persist instructions after the ownership
    CAS and the release store (the Section 6 shared-cache
    transformation). *)

val acquire : t -> pid:int -> unit
(** Fiber context: spin until the CAS from ⊥ to [pid] succeeds. *)

val release : t -> pid:int -> unit
(** Fiber context: a single store of ⊥.  Only the owner may call it. *)

val holds : Machine.t -> t -> pid:int -> bool
(** Driver/recovery context (no step): does [pid] own the lock?  Exact
    across crashes — the CAS and the release store are both atomic.  A
    test hook. *)

val holds_f : t -> pid:int -> bool
(** Fiber context (one read step): same question from inside a program. *)

val owner_loc : t -> Loc.t
(** The ownership cell (for space accounting: one cell of O(log N) bits). *)
