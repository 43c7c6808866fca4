open Nvm

(** Events of a concurrent execution history.

    The driver appends one event per invocation, response, system-wide
    crash, and recovery outcome.  Event order in the list is the
    real-time order of the execution.  Every operation {e instance}
    carries a unique id [uid], so an abstract operation retried after a
    [fail] verdict appears as a fresh instance. *)

type t =
  | Inv of { pid : int; uid : int; op : Spec.op }
      (** process [pid] invokes an operation *)
  | Ret of { pid : int; uid : int; v : Value.t }
      (** normal completion with response [v] *)
  | Crash  (** system-wide crash *)
  | Rec_ret of { pid : int; uid : int; v : Value.t }
      (** recovery inferred the crashed operation was linearized and
          obtained its response [v] (detectability, success case) *)
  | Rec_fail of { pid : int; uid : int }
      (** recovery inferred the crashed operation was {e not} linearized
          (the paper's [fail] verdict) *)

val pp_history : Format.formatter -> t list -> unit

val crashes : t list -> int
(** Number of crash events in a history. *)
