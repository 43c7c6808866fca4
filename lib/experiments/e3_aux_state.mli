open Dtc_util

(** Experiment E3 — Figure 2 / Theorem 2: detectable implementations of
    doubly-perturbing objects need auxiliary state.

    The Theorem 2 adversary (witness-derived workloads, every crash point,
    delay-bounded interleavings, both recovery policies) is launched
    against:

    - the no-auxiliary-state read/write ablations (both possible recovery
      strategies) — a violation {e must} be found;
    - Algorithms 1 and 2 and the unbounded baselines, which receive
      auxiliary state through announcements — no violation;
    - the max register (Algorithm 3), which needs no auxiliary state
      because it is not doubly-perturbing (Lemma 4) — no violation.

    The expected column states what the theory predicts; the verdict
    column is what the adversary measured. *)

val table : unit -> Table.t

val all_as_predicted : unit -> bool
(** True iff every row's verdict matches the theory's prediction; a test
    hook. *)
