open Dtc_util

(** Experiment E2 — the space complexity of detectable CAS.

    Algorithm 2 uses Θ(N) shared bits beyond the value (the N-bit flip
    vector), matching Theorem 1's Ω(N) lower bound; the prior detectable
    CAS of Ben-David et al. tags values with unbounded sequence numbers
    whose footprint grows with the operation count.  Both claims measured
    on the simulator's exact bit accounting. *)

val dcas_extra_bits : n:int -> ops:int -> int
(** Shared bits of Algorithm 2's variable [C] beyond the value bits after
    a workload of [ops] operations per process; a test hook. *)

val ucas_bits : n:int -> ops:int -> int
(** Total shared bits of the unbounded baseline after [ops] alternating
    CAS operations; a test hook. *)

val table_bounded : unit -> Table.t
(** N vs Algorithm 2 extra bits vs the N−1 lower bound (flat in ops). *)

val table_unbounded : unit -> Table.t
(** Operation count vs footprints: Algorithm 2 flat, baseline growing. *)
