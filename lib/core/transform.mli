open Nvm
open Runtime

(** Detectable read-modify-write objects built from the detectable CAS
    core — the capsule construction sketched in Section 6 (after
    Ben-David et al.): a lock-free read/CAS loop in which every CAS
    attempt is its own little recoverable operation with per-attempt
    announcement cells.

    On a crash, the outer recovery first consults the persisted top-level
    response; failing that, it checks whether the {e last committed
    attempt} (persisted in [att_p] before the attempt's CAS) was a
    successful detectable CAS — if so the operation was linearized at
    that CAS and its response is reconstructed from the attempt's [old]
    value; otherwise nothing took effect and recovery answers [fail].

    The resulting objects are detectable and lock-free (wait-free when
    run solo; a CAS loop can starve under contention). *)

type t

val instance : t -> Sched.Obj_inst.t
val shared_locs : t -> Loc.t list
(** The core CAS cell; a test hook. *)

(** {1 Ready-made objects} *)

val counter : ?persist:bool -> Machine.t -> n:int -> init:int -> t
(** Detectable counter: [read], [inc]. *)

val faa : ?persist:bool -> Machine.t -> n:int -> init:int -> t
(** Detectable fetch-and-add: [read], [faa d] returning the old value. *)

val swap : ?persist:bool -> Machine.t -> n:int -> init:Value.t -> t
(** Detectable swap: [read], [swap v] returning the previous value. *)

val tas : ?persist:bool -> Machine.t -> n:int -> t
(** Detectable resettable test-and-set: [read], [tas] returning the
    previous flag, [reset].  Built from read/CAS base objects, it is
    bounded-space — the companion positive result to Attiya et al.'s
    proof (cited in the paper's introduction) that detectable TAS from
    {e non-recoverable TAS} base objects needs unbounded space.  A [tas]
    on a set flag and a [reset] of a clear flag are identity attempts and
    run read-only. *)

val bounded_counter :
  ?persist:bool -> Machine.t -> n:int -> lo:int -> hi:int -> init:int -> t
(** Detectable saturating counter over [{lo..hi}] — the appendix's
    doubly-perturbing-but-not-perturbable example, as a live object:
    [read], [inc] (saturates at [hi], where it becomes an identity
    attempt). *)
