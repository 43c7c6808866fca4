(** One decision of a run: a process takes its next primitive step, or
    the system crashes.  Given the workloads, a run is determined by its
    decision sequence, so this names every engine's schedules: explorer
    violations, torture traces and journals, and the shrinker's input
    and output.  {!Driver.replay} re-runs a sequence. *)

type t = Step of int  (** process [pid] takes one step *) | Crash

val to_string : t -> string
(** ["p<pid>"] for [Step pid], ["CRASH"] for [Crash]. *)

val of_string : string -> (t, string) result
(** The inverse of {!to_string}; any other string, including a
    non-canonical pid such as ["p01"], is an [Error] naming it. *)

val schedule_to_string : t list -> string
(** The spellings joined by single spaces. *)
