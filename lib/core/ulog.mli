open Runtime
open History

(** A persistent log-based universal construction (Section 6 discusses
    this family: Cohen et al.'s log-based construction and Berryhill et
    al.'s recoverable universal construction provide recoverability for
    {e any} object, at a logging cost, and — without extra help — no
    detectability).

    The object's state is an append-only NVM log of operations; an
    operation linearizes at the CAS that claims its log slot, and its
    response is computed deterministically by replaying the immutable
    prefix.  The construction is generic over any sequential
    specification.

    Two modes:
    - [`Durable]: log entries carry no identity.  Recovery sees a
      perfectly consistent object but answers
      {!Sched.Obj_inst.unknown} — exactly the paper's observation that a
      universal construction lets a process recover {e state} but "can
      not infer whether its last invoked operation was linearized".
    - [`Detectable]: the announcement assigns each invocation a unique
      (pid, seq) tag — auxiliary state provided via NVM, as Theorem 2
      demands — and recovery scans the log for the tag: found means
      linearized (response recomputed by replay), absent means certainly
      not.

    Costs, measured by experiment E9/T1: space grows with the number of
    operations (the log is never truncated — the "inherent cost of
    remembering"), and each operation pays a replay linear in the log
    length.  The bounded-space Algorithms 1-2 are the paper's answer to
    precisely this. *)

type t

val create :
  ?persist:bool ->
  ?mode:[ `Durable | `Detectable ] ->
  Machine.t ->
  n:int ->
  capacity:int ->
  spec:Spec.t ->
  t
(** [capacity] bounds the total number of operations (log slots are
    pre-allocated).  Default mode: [`Detectable]. *)

val instance : t -> Sched.Obj_inst.t
(** Accepts every operation of [spec] (it is appended and replayed). *)

val log_length : Machine.t -> t -> int
(** Driver-side: entries appended so far (the space that grows); a test
    hook. *)
