open Nvm
open Runtime

(** Algorithm 1: the bounded-space wait-free detectable read/write object.

    State (all non-volatile):
    - shared register [R] holding a triple [(v, q, b)] — the current
      value, the id of the process that last wrote it, and the index of
      the toggle-bit array that write used;
    - shared boolean array [A[N][N][2]] of toggle bits: [A[i][q][b]] is
      the flag process [q] raises toward process [i] when it completes a
      write that used toggle array [b];
    - private [RD_p] (recovery data: the triple read from [R] plus the
      writer's own toggle index) and [T_p] (which toggle array the next
      write uses).

    The toggle bits solve the ABA problem that bounded space re-opens:
    upon recovery at checkpoint 1, if [R] looks unchanged, process [p]
    knows a write really happened in between iff the bit it lowered at
    line 2 has been raised again — because the only way [q] can re-write
    the same triple is to complete an intervening write with the other
    toggle index, which raises all of that index's bits.

    Space: [R] carries [O(log N)] bits beyond the value; [A] is [2N²]
    bits — bounded, in contrast to the unbounded tags of Attiya et al.
    (see {!Baselines.Urw} for that comparator). *)

type t

val create : ?persist:bool -> Machine.t -> n:int -> init:Value.t -> t
(** Allocate the object for [n] processes with initial value [init].
    [persist] enables the shared-cache-model instrumentation. *)

val instance : t -> Sched.Obj_inst.t
(** Driver-facing instance.  Operations: [read], [write v]. *)
