open Dtc_util

(** Scheduling policies: who takes the next primitive step.

    The paper's processes are fully asynchronous, so any interleaving of
    primitive steps is legal.  A schedule is an online chooser consulted
    by the driver at every step with the set of runnable process ids. *)

type t = { choose : runnable:int list -> step:int -> int }
(** [choose ~runnable ~step] picks one element of [runnable] (non-empty,
    sorted ascending). *)

val round_robin : unit -> t
(** Cycle through runnable processes in pid order. *)

val random : Prng.t -> t
(** Uniformly random runnable process at every step — the workhorse of the
    crash-torture tests. *)

val solo : int -> t
(** Always the given process when runnable, else round-robin among the
    rest; a test hook. *)

val scripted : int list -> t
(** Follow the given pid sequence, skipping entries that are not runnable;
    falls back to the smallest runnable pid when the script is exhausted.
    Used to drive the proof constructions step by step. *)
