open Dtc_util

(** Experiment E1 — Figure 1 / Theorem 1.

    Theorem 1: any obstruction-free detectable CAS over a domain of size
    ≥ N reaches at least 2^(N−1) pairwise non-memory-equivalent
    configurations.  The proof's induction (Figure 1) branches, per
    process, on whether its CAS's modifying step happened before the next
    process observes — yielding one distinct configuration per subset of
    processes.

    This experiment materialises exactly that configuration family on
    Algorithm 2: for every subset S of the N processes, the processes in
    S each complete one successful CAS sequentially; the final shared
    memories are pairwise distinct (the flip vector equals the
    characteristic vector of S), so Algorithm 2 realises 2^N ≥ 2^(N−1)
    reachable configurations — matching the lower bound and showing its
    Θ(N) bits are genuinely used.  For small N the bounded model checker
    cross-checks reachability over true interleavings. *)

val subset_configs : n:int -> int
(** Distinct (non-memory-equivalent) configurations reached by driving
    every subset of processes through one successful CAS each; a test
    hook, as is {!exhaustive_configs}. *)

val exhaustive_configs : n:int -> int
(** Distinct configurations seen by delay-bounded exploration of an
    N-process one-CAS-each workload (with crashes); a test hook. *)

val table : unit -> Table.t
(** Rows: N, subset-driven configs, 2^(N−1) lower bound, exhaustive
    small-N cross-check. *)
