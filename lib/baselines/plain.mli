open Nvm
open Runtime

(** Plain, {e non-recoverable} objects: the "original" implementations the
    paper's detectable algorithms are measured against.

    They keep no announcements, no checkpoints and no recovery data; their
    recovery dispatcher always reports "nothing pending", so after a crash
    an in-flight operation is simply lost.  Under a crash-free run they
    give the baseline time/space cost of each object; under crash torture
    they demonstrate (experiment E6's expected-failure rows) that
    detectability does not come for free: the driver, unable to learn
    whether a lost operation took effect, must guess, and the checker duly
    catches the guesses that were wrong. *)

val register : Machine.t -> init:Value.t -> Sched.Obj_inst.t
(** Ops: [read], [write v]. *)

val cas_cell : Machine.t -> init:Value.t -> Sched.Obj_inst.t
(** Ops: [read], [cas old new]. *)

val counter : Machine.t -> init:int -> Sched.Obj_inst.t
(** Ops: [read], [inc] (a primitive fetch-and-add). *)

val queue : Machine.t -> capacity:int -> Sched.Obj_inst.t
(** Lock-free MS-style queue over a node pool.  Ops: [enq v], [deq]. *)
