open Dtc_util

(** Experiment E4 — bounded-space detectable read/write.

    Algorithm 1's shared footprint is fixed at allocation time: the
    register [R] carries O(log N) bits beyond the value and the toggle
    array [A] carries 2N² bits, independent of how many operations run.
    The unbounded baseline (after Attiya et al.) tags every write with a
    fresh sequence number, so its register grows with the operation
    count.  Measured with the simulator's exact bit accounting. *)

val drw_bits : n:int -> ops:int -> int
(** High-water shared footprint (bits) of Algorithm 1 after [ops] writes
    per process; a test hook. *)

val urw_bits : n:int -> ops:int -> int
(** Same for the unbounded-tag baseline; a test hook. *)

val table : unit -> Table.t
