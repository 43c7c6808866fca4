open Dtc_util

(** Experiment E8 — Section 6 transformations.

    (a) NRL: wrapping a DL+detectable implementation so that recovery
    re-invokes instead of answering [fail] yields nesting-safe
    recoverable linearizability — measured as "no [Rec_fail] event ever
    appears and all histories check out".

    (b) Shared-cache model: after the syntactic persist transformation,
    Algorithms 1-3 (and the queue) survive crashes that lose arbitrary
    subsets of unpersisted cache lines; the untransformed Algorithm 1 run
    in the same model does not. *)

val table_nrl : ?trials:int -> unit -> Table.t
(** Default 60 runs per row.  A row is as predicted when it has no
    violation and its recovery answers [fail] never (the NRL-wrapped
    rows) or at least once (the unwrapped contrast row). *)

val table_shared_cache : ?trials:int -> unit -> Table.t
(** Default 60 torture trials per row ({!Torture.run}, row [k] on root
    seed [k + 1]).  A persist-instrumented row is as predicted with zero
    violations, the untransformed one with more than zero. *)

val all_as_predicted : ?trials:int -> unit -> bool
(** Every row of both tables is as predicted (default 60 runs); a test
    hook. *)
