open Dtc_util

(** Table T1 — the hardware-independent cost model: primitive steps per
    operation, each implementation run solo. *)

val steps_table : unit -> Table.t
(** T1a: 100 operations, announce/clear protocol included. *)

val drw_scaling_table : unit -> Table.t
(** T1a': Algorithm 1's write cost for N = 2 … 32 (its toggle loop). *)
