open Nvm
open Runtime

(** A lock-based detectable counter: the mutual-exclusion route to
    detectability, for contrast with the lock-free capsules of
    {!Transform}.

    The counter's state is deliberately {e torn-prone}: two NVM cells
    [a] and [b] that an increment must update one after the other.  The
    recoverable lock ({!Rlock}) makes the two-step update safe against
    interference, and a small amount of per-process recovery data makes
    it detectable against crashes:

    - before its first update, the increment persists the value it read
      ([old_p := a]), then performs [a := old+1], [b := old+1], persists
      its response, and only then releases;
    - recovery with the persisted response returns it; recovery while
      {e holding the lock} finishes the critical section exactly once
      (if [a] still equals [old_p] the update never started — redo it;
      otherwise it started — ensure [b] catches up) and releases;
    - recovery without the lock and without a response means the
      operation never acquired, hence never took effect: [fail].

    Progress is blocking (deadlock-free, not wait-free) — the trade the
    lock-based construction makes relative to Algorithms 1-2. *)

type t

val create : ?persist:bool -> Machine.t -> n:int -> init:int -> t
val instance : t -> Sched.Obj_inst.t
(** Operations: [read], [inc]. *)

val shared_locs : t -> Loc.t list
(** The lock word and the two data cells; a test hook. *)
