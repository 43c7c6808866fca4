open History

(** Counterexample minimisation (delta debugging over decision
    sequences).

    A violation found by the explorer or by a torture trial comes with
    the decision sequence that produced it.  [minimise] greedily deletes
    decisions — steps and crashes — re-executing after each deletion and
    keeping any shorter sequence that still yields a checker violation,
    until no single deletion preserves the failure (1-minimality).

    A candidate sequence is run by {!Driver.replay}: tolerant (a [Step
    pid] whose process is not runnable is skipped, since deleting an
    early decision shifts everything after it), then completed lowest
    runnable pid first.  The result therefore reproduces a violation
    under "prefix then free run", which is how the minimised schedule
    should be read.

    Like the explorer, the shrinker keeps one session in undo
    mode: the greedy pass advances the session through the kept prefix
    and evaluates each deletion candidate by mark / run-tail / rewind,
    so a candidate costs O(its tail) instead of O(the whole sequence).

    A {!Lin_check.Session} shadows the undo session mark-for-mark, so
    each candidate's verdict reuses the frontier of the kept prefix
    instead of re-checking the whole history.  It agrees with the batch
    engine ({!Lin_check.check_with} [`Batch]) on every verdict, so [minimise]'s result is
    exactly greedy single deletion over a one-shot {!Driver.replay}
    judged by the batch checker. *)

type result = {
  decisions : Decision.t list;  (** the minimised prefix *)
  history : Event.t list;
  msg : string;
  attempts : int;  (** candidate executions performed while shrinking *)
}

val minimise :
  mk:(unit -> Runtime.Machine.t * Obj_inst.t) ->
  workloads:Spec.op list array ->
  ?policy:Session.policy ->
  ?wipe:Nvm.Fault_model.wipe ->
  ?max_steps:int ->
  Decision.t list ->
  result option
(** [None] if the input sequence does not reproduce a violation under
    tolerant replay (shrinking needs a reproducible starting point).
    Crashes in the sequence apply [wipe] (default
    {!Nvm.Fault_model.keep_all}; a [Seeded] wipe keys on the crash index,
    so the exact faulted run that produced the violation is replayed). *)
