open Dtc_util
open Nvm

(** Crash-injection plans.

    A plan decides, before every scheduled step, whether a system-wide
    crash strikes now, and — for the shared-cache model — what happens
    to the dirty cache lines at the instant of failure (the {!wipe}).
    In the private-cache model the wipe is irrelevant. *)

type t = {
  should_crash : step:int -> bool;
      (** consulted with the global step count before each step; a plan is
          responsible for bounding its own number of crashes *)
  wipe : Fault_model.wipe;
      (** write-back behaviour for the dirty lines: a legacy per-location
          [Keep] predicate, or a [Seeded] fault model whose randomness is
          a pure function of the crash index (see
          {!Runtime.Machine.crash}) *)
}

val none : t
(** Never crash. *)

val at_steps : ?keep:(Loc.t -> bool) -> int list -> t
(** Crash immediately before global steps [ks].  Each listed step fires
    exactly once, including duplicates — [at_steps [4; 4]] crashes on
    two consecutive consultations once step 4 is reached.  Default wipe
    keeps everything (private-cache semantics). *)

val check_prob : float -> unit
(** Raises [Invalid_argument] unless the crash probability is in
    [\[0, 1\]] (NaN included). *)

val faulted :
  ?max_crashes:int -> ?fault:Fault_model.t -> prob:float -> Prng.t -> t
(** Raises [Invalid_argument] when [prob] fails {!check_prob}.
    Otherwise: crash before each step with probability [prob], at most
    [max_crashes] times (default 3), injecting each crash under [fault]
    (default [Atomic]: every dirty line persists whole).  For any other
    fault a seed is drawn from [prng] at construction and the plan's
    wipe is [Seeded (fault, seed)]: the write-back decisions come from
    that dedicated stream, never from [prng] itself, so crash outcomes
    cannot perturb the crash/schedule stream.  [Atomic] draws no seed,
    so keep-everything plans consume only the crash coin flips. *)

val fault_seed : t -> int
(** The seed inside a [Seeded] wipe, or [0] for a [Keep] wipe — recorded
    in torture trial records so the shrinker can replay the exact fault
    stream. *)
