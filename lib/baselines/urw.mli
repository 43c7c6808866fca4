open Nvm
open Runtime

(** Unbounded-space detectable read/write object, after Attiya, Ben-Baruch
    and Hendler [3] — the comparator Algorithm 1 improves on.

    Every write installs a value tagged with a globally unique
    [(pid, seq)] pair, where [seq] is a per-process persistent counter.
    Uniqueness kills the ABA problem outright: upon recovery at the
    checkpoint, register [R] unchanged since the pre-write read means the
    write certainly did not execute ([fail]), [R] holding the writer's own
    tag means it did, and any other content means some write intervened —
    in which case the crashed write either executed and was overwritten,
    or can be linearized immediately before the intervening write; both
    verdicts are [ack].

    The price is the unbounded tag: [seq] grows without bound with the
    number of operations, which is exactly what experiment E4 measures
    against Algorithm 1's flat footprint. *)

type t

val create : ?persist:bool -> Machine.t -> n:int -> init:Value.t -> t
val instance : t -> Sched.Obj_inst.t
(** Operations: [read], [write v]. *)

val shared_locs : t -> Loc.t list
(** The register's one shared cell; a test hook. *)
