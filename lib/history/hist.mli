open Nvm

(** History utilities: per-operation outcomes, statistics and
    well-formedness.

    A history is the event list a {!Sched.Driver} run records.  These
    helpers answer the questions tests, experiments and the CLI keep
    asking of one — without re-walking the list by hand each time. *)

type op_outcome =
  | Completed of Value.t  (** normal response *)
  | Recovered of Value.t  (** response obtained by recovery *)
  | Failed  (** recovery's [fail] verdict: certainly not linearized *)
  | Pending  (** no outcome (still running, or lost to a crash) *)

type op_info = {
  uid : int;
  pid : int;
  op : Spec.op;
  outcome : op_outcome;
}

val ops : Event.t list -> op_info list
(** One record per operation instance, in invocation order.  Raises
    [Invalid_argument] on a malformed history (see {!well_formed}).  A
    test hook. *)

type stats = {
  invocations : int;
  completed : int;
  recovered : int;
  failed : int;
  pending : int;
  crashes : int;
}

val stats : Event.t list -> stats
val pp_stats : Format.formatter -> stats -> unit

val well_formed : Event.t list -> (unit, string) result
(** Structural validity: unique invocation uids, outcomes only for known
    invocations, at most one outcome per instance.  The checker enforces
    the same rules; this exposes them without running a linearizability
    search.  A test hook. *)
