open Dtc_util

(** Experiment E6 — durable linearizability + detectability under crash
    torture (Lemmas 1-2 as a statistical test, plus exhaustive small
    cases).

    Every object runs one {!Torture.run} campaign (row [k] on root seed
    [k + 1]) and every history goes through the checker; the paper's
    algorithms must score zero violations, counting trials that are not
    linearized, cut by a step budget or raise out of object code
    ({!Common.violations}).  The ablation rows (toggle bits removed,
    flip vector removed, a plain non-recoverable queue) must score
    nonzero — they calibrate the oracle: the same harness that passes
    the real algorithms does catch broken ones.  So that no calibration
    rests on sampling luck, the toggle-free register runs the directed
    ABA script and the other two are explored exhaustively (every
    schedule with at most one context switch and one crash). *)

val table : ?trials:int -> unit -> Table.t
(** Default 60 trials per torture row. *)

val aba_directed :
  mk:(unit -> Runtime.Machine.t * Sched.Obj_inst.t) -> History.Lin_check.verdict
(** The directed ABA attack (the toggle bits' raison d'être) on a
    3-process register whose only shared location named "R" holds the
    (value, writer) pair, under [Give_up]: p1 writes 5 and completes;
    p0's write of 9 runs exactly until its store to R; p2 reads 9; p1
    re-installs (5, p1); crash; everyone recovers and drains.  A
    recovery that compares only R against its pre-write snapshot
    answers fail, abandoning a write p2 already read: a violation.  The
    real Algorithm 1 survives, because p1's completed write raised the
    toggle bit p0 lowered.  Raises [Failure] if the script does not
    converge.  A test hook. *)

val all_as_predicted : ?trials:int -> unit -> bool
(** Every row of {!table} meets its expectation (default 60 trials); a
    test hook. *)
