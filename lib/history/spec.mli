open Nvm

(** Sequential specifications of the objects studied by the paper.

    A specification is a deterministic transition function over an
    abstract state encoded as a {!Value.t}: it is what the
    durable-linearizability checker replays candidate linearizations
    against, and what the doubly-perturbing analysis (Section 5 and the
    appendix) explores. *)

type op = { name : string; args : Value.t array }
(** An abstract operation instance, e.g. [{name = "cas"; args = [|Int 0;
    Int 1|]}].  Per Theorem 2's hypothesis, arguments contain only the
    data specified by the abstract object — auxiliary state, when an
    implementation needs it, travels through announcement structures, not
    through [args]. *)

val pp_op : Format.formatter -> op -> unit

type t = {
  obj_name : string;
  init : Value.t;  (** initial abstract state *)
  step : Value.t -> op -> Value.t * Value.t;
      (** [step state op] is [(state', response)].  Raises
          [Invalid_argument] on an operation the object does not
          support. *)
}

val final_state : t -> op list -> Value.t
(** Abstract state after a sequential history. *)

(** {1 The paper's object menagerie} *)

val ack : Value.t
(** Response of operations that return no data ("ack" in the paper). *)

val register : Value.t -> t
(** Read/write register (Section 3).  Ops: [read], [write v]. *)

val cas_cell : Value.t -> t
(** CAS object (Section 4).  Ops: [read], [cas old new] returning
    [Bool]. *)

val counter : int -> t
(** Counter (Lemma 5).  Ops: [read], [inc] returning [ack]. *)

val bounded_counter : lo:int -> hi:int -> int -> t
(** Bounded counter over [{lo..hi}] (appendix: doubly-perturbing but not
    perturbable).  [inc] saturates at [hi]. *)

val faa_cell : int -> t
(** Fetch-and-add (Lemma 7).  Ops: [read], [faa d] returning the old
    value. *)

val max_register : int -> t
(** Max register (Lemma 4 / Algorithm 3).  Ops: [read], [write_max v]. *)

val resettable_tas : unit -> t
(** Resettable test-and-set (Section 5's object class; also the subject
    of Attiya et al.'s unbounded-space result the introduction cites).
    Ops: [read], [tas] returning the {e previous} flag, [reset]. *)

val swap_cell : Value.t -> t
(** Swap object (listed among the common perturbable/doubly-perturbing
    objects in Section 5).  Ops: [read], [swap v] returning the previous
    value. *)

val fifo_queue : unit -> t
(** FIFO queue (Lemma 8).  Ops: [enq v] returning [ack], [deq] returning
    the head or [Str "empty"] when the queue is empty ([Bot] is reserved
    for "response unset"). *)

(** {1 Operation constructors} *)

val read_op : op
val tas_op : op
val reset_op : op
val swap_op : Value.t -> op
val write_op : Value.t -> op
val cas_op : Value.t -> Value.t -> op
val inc_op : op
val faa_op : int -> op
val write_max_op : int -> op
val enq_op : Value.t -> op
val deq_op : op
