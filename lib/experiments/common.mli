open Nvm
open History
open Sched

(** Shared plumbing for the experiment harness. *)

val i : int -> Value.t

val predicted_table :
  title:string -> string list -> (string list * bool) list -> Dtc_util.Table.t
(** [predicted_table ~title columns rows]: each row is its cells and
    whether it came out as predicted, rendered as a last "as predicted"
    column reading [yes] or [NO] (CI fails on any [NO]). *)

val violations : Torture.report -> int
(** The trials of a torture campaign that count against an
    implementation: not linearized, cut by the step budget or the
    watchdog, or raising out of object code. *)

val run_steps :
  mk:(unit -> Runtime.Machine.t * Obj_inst.t) ->
  workloads:Spec.op list array ->
  seed:int ->
  Driver.result
(** One random-schedule run with light crash injection (for step
    accounting of operations and recoveries). *)
