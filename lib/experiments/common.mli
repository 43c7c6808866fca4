open Nvm
open History
open Sched

(** Shared plumbing for the experiment harness. *)

val i : int -> Value.t

val mk_drw : ?n:int -> unit -> Runtime.Machine.t * Obj_inst.t
val mk_dcas : ?n:int -> unit -> Runtime.Machine.t * Obj_inst.t
val mk_dmax : ?n:int -> unit -> Runtime.Machine.t * Obj_inst.t
val mk_dcounter : ?n:int -> unit -> Runtime.Machine.t * Obj_inst.t
val mk_dfaa : ?n:int -> unit -> Runtime.Machine.t * Obj_inst.t
val mk_dqueue : ?n:int -> ?capacity:int -> unit -> Runtime.Machine.t * Obj_inst.t
val mk_urw : ?n:int -> unit -> Runtime.Machine.t * Obj_inst.t
val mk_ucas : ?n:int -> unit -> Runtime.Machine.t * Obj_inst.t

val torture_count :
  ?policy:Session.policy ->
  ?fault:Fault_model.t ->
  ?crash_prob:float ->
  ?max_crashes:int ->
  trials:int ->
  mk:(unit -> Runtime.Machine.t * Obj_inst.t) ->
  workloads_of_seed:(int -> Spec.op list array) ->
  unit ->
  int * int
(** [(violations, crashes_injected)] over the given number of seeded
    random runs with random crash injection. *)

val run_steps :
  mk:(unit -> Runtime.Machine.t * Obj_inst.t) ->
  workloads:Spec.op list array ->
  seed:int ->
  Driver.result
(** One random-schedule run with light crash injection (for step
    accounting of operations and recoveries). *)
