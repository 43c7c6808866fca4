open Nvm

(** Primitive shared-memory operations.

    These are the atomic steps of the paper's system model: a process's
    execution is a sequence of primitive operations on base objects, and a
    system-wide crash may occur between any two of them.  [Persist] and
    [Fence] only have an effect in the shared-cache model (Section 6);
    [Yield] is a local no-op step used to give the scheduler (and crash
    injector) a hook at points of interest without touching memory. *)

type request =
  | Read of Loc.t
  | Write of Loc.t * Value.t
  | Cas of Loc.t * Value.t * Value.t  (** returns [Bool] *)
  | Faa of Loc.t * int  (** fetch-and-add, returns old [Int] *)
  | Persist of Loc.t  (** flush one cache line (shared-cache model) *)
  | Fence  (** flush all dirty lines (shared-cache model) *)
  | Yield

val touches : request -> Loc.t option
(** The location a request addresses, if any. *)
