(** Fault models for the NVM crash engine.

    A fault model describes what happens to the {e dirty} (written but
    not yet explicitly persisted) cache lines when a crash is injected
    under {!Machine.Shared_cache} semantics:

    - {!Atomic} — every dirty line persists whole, in [Loc.id] order.
      This is the historical behaviour and the model the paper assumes
      (each object field is a single CAS-able word whose persist is
      all-or-nothing).
    - [Drop {keep_prob}] — each dirty line independently persists whole
      with probability [keep_prob] and is lost otherwise.
    - [Torn {granularity}] — a dirty composite {!Value.Tup} persists
      component-wise: contiguous chunks of [granularity] fields each
      independently land as the new or the old value.  Non-tuple values
      (or tuples whose arity changed) fall back to a whole-line coin
      flip.  This deliberately steps {e outside} the paper's model,
      where the composite word persists atomically.
    - {!Reorder} — dirty lines persist in an adversarially chosen order
      and an adversarially chosen prefix of that order survives; the
      suffix is lost.

    All randomness is drawn from a dedicated {!Dtc_util.Prng} stream
    derived from a seed recorded in the {!wipe}, never from the
    schedule's PRNG, so crash outcomes are a pure function of
    [(fault, seed, crash index, dirty set)] — the determinism contract
    torture campaigns and the shrinker rely on. *)

type t =
  | Atomic
  | Drop of { keep_prob : float }
  | Torn of { granularity : int }
  | Reorder

(** What a crash does to the dirty set.  [Keep pred] is the legacy
    per-location predicate (pred true = line persists whole); [Seeded
    (fault, seed)] applies [fault] with randomness from
    [Prng.stream seed ~index:k] at the k-th crash (0-based), making
    every crash's write-back independently replayable. *)
type wipe =
  | Keep of (Loc.t -> bool)
  | Seeded of t * int

val default : t
(** [Atomic]. *)

val keep_all : wipe
(** [Keep (fun _ -> true)] — every dirty line persists whole. *)

val to_string : t -> string
(** ["atomic"], ["drop(keep=0.50)"], ["torn(g=1)"], ["reorder"] —
    stable spellings used in reports, checkpoints and baselines;
    {!of_string} parses them back. *)

val of_string : string -> (t, string) result
(** Parses {!to_string} output (["drop(keep=0.70)"], ["torn(g=2)"]) as
    well as the CLI shorthands ["drop"], ["drop:0.7"], ["drop=0.7"],
    ["torn"], ["torn:2"], ["torn=2"].  Any other spelling — a second
    separator, a stray parenthesis, a missing number — is an [Error]
    naming the bad parameter; it never raises. *)
