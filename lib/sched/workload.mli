open Dtc_util
open History

(** Random workload generation for torture tests and benchmarks.

    Every generator draws from a {!Prng.t}, so a workload is reproducible
    from its seed.  Values come from a small domain on purpose: collisions
    are what exercise the ABA machinery of Algorithms 1 and 2. *)

val register :
  Prng.t -> procs:int -> ops_per_proc:int -> values:int -> Spec.op list array
(** Mix of [read] and [write v], v ∈ [0, values). *)

val cas :
  Prng.t -> procs:int -> ops_per_proc:int -> values:int -> Spec.op list array
(** Mix of [read] and [cas old new] with arguments from the domain. *)

val counter : Prng.t -> procs:int -> ops_per_proc:int -> Spec.op list array
(** Mix of [read] and [inc]. *)

val faa :
  Prng.t -> procs:int -> ops_per_proc:int -> max_delta:int -> Spec.op list array
(** Mix of [read] and [faa d], d ∈ [1, max_delta]. *)

val max_register :
  Prng.t -> procs:int -> ops_per_proc:int -> values:int -> Spec.op list array
(** Mix of [read] and [write_max v]. *)

val tas : Prng.t -> procs:int -> ops_per_proc:int -> Spec.op list array
(** Mix of [tas], [reset] and [read], tas-biased. *)

val swap :
  Prng.t -> procs:int -> ops_per_proc:int -> values:int -> Spec.op list array
(** Mix of [read] and [swap v]. *)

val queue :
  Prng.t -> procs:int -> ops_per_proc:int -> values:int -> Spec.op list array
(** Mix of [enq v] and [deq], enqueue-biased so queues are usually
    non-empty. *)
