open Nvm

(** Process-symmetry canonicalisation of memory configurations.

    The core objects' layout contract ({!Sched.Obj_inst.id_symmetric})
    says process-id-dependent data lives only in per-process private
    cells (allocated in the same slot order for every process) and in
    the pid-indexed entries of shared length-N {!Value.Tup} vectors.
    Under that contract a permutation π of process ids acts on a
    configuration by permuting each process's private-cell block and
    each length-N vector's entries; two configurations in the same
    orbit are reachable from each other by renaming processes, so an
    explorer needs to visit only one representative per orbit.

    This module provides the two memory-side ingredients:

    - {!swap_invariant} decides whether transposing two given pids
      leaves the configuration bytewise unchanged — the cheap runtime
      check the explorer's [`Dpor_sym] reduction performs before
      pruning a never-stepped process in favour of an interchangeable
      representative;
    - {!canonical_fingerprint_shared} digests the shared cells of a
      configuration {e modulo all of S_N} (a true quotient up to
      63-bit hash collisions): π-related configurations always
      collide, and {!Config_set} keys orbits on it.

    Nested vectors are handled recursively.  A tuple is classified as
    a pid-indexed vector when it has length N {e and} all its entries
    share one structural skeleton (constructor shape, ignoring scalar
    values) — so a flip vector [(true, false)] is a vector at N = 2
    while Algorithm 2's heterogeneous pair [(value, flip-vector)] is
    not.  The classification is invariant under the permutation action
    (permuting equal-skeleton entries preserves every skeleton), which
    is what makes the fingerprints commute with it.  A genuine
    homogeneous N-tuple that is not pid-indexed is still
    over-approximated as one; that only makes {!swap_invariant} more
    conservative (fewer prunes — still sound) and
    {!canonical_fingerprint_shared} coarser, which is why the explorer
    additionally requires the instance's [id_symmetric] declaration
    before acting on either. *)

val swap_invariant : n:int -> Mem.t -> int -> int -> bool
(** [swap_invariant ~n mem p q] — is the current configuration invariant
    under transposing process ids [p] and [q]?  True iff every shared
    length-[n] vector (recursively) holds equal values at indices [p]
    and [q], and the private-cell blocks of [p] and [q] have the same
    length and equal values slot by slot.  [p = q] is rejected with
    [Invalid_argument]. *)

val canonical_fingerprint_shared : n:int -> Mem.t -> int * int
(** Two-word digest of the shared cells modulo process-id permutation —
    the quotient of the paper's memory-equivalence by S_N.  The
    per-process views (pid-indexed vector entries, position-tagged) are
    hashed individually and folded as a sorted multiset, the
    pid-independent remainder positionally.  π-related configurations
    get equal fingerprints for every π ∈ S_N; distinct orbits collide
    only with 63-bit-hash probability.  This is the key
    {!Config_set}'s canonical counting uses: one entry per reachable
    {e orbit} of shared configurations, with {!orbit_size_shared}
    supplying each orbit's exact cardinality. *)

val orbit_size_shared : n:int -> Mem.t -> int
(** Exact size of the current shared configuration's orbit under S_N:
    [N! / prod(class sizes!)], where two pids are in one class iff the
    configuration is invariant under transposing them restricted to
    shared cells (the stabiliser is exactly that partition's Young
    subgroup, so the count is not an estimate).  Raises
    [Invalid_argument] for [n > 20] ([N!] would overflow). *)

val self_key : n:int -> pid:int -> seed:int -> Value.t -> int
(** One process's view of a value: its pid-independent shape mixed with
    the [pid]-th slice of every pid-indexed vector.  Equivariant under
    the action ([self_key ~pid:(π p) (π v) = self_key ~pid:p v]), which
    is what lets the explorer rank processes π-consistently {e before}
    any permutation has been chosen. *)

val hash_perm : n:int -> inv:int array -> seed:int -> Value.t -> int
(** Digest of a value under an explicit process relabeling: pid-indexed
    vectors contribute their entries in the order [inv.(0), inv.(1),
    ...] (canonical rank order) instead of pid order.  When two
    configurations are π-images and [inv] carries their matching
    canonical orders, the digests agree; used by the explorer to fold
    memory contents and logged response values into its
    symmetry-canonical memo key. *)

val skel : n:int -> Value.t -> int
(** {!self_key}'s skeleton part; a test hook for the reference test. *)

val shape : n:int -> seed:int -> Value.t -> int
(** {!self_key}'s shape part; a test hook for the reference test. *)

val slice : n:int -> pid:int -> seed:int -> Value.t -> int
(** {!self_key}'s per-process slice; a test hook for the reference test. *)

(** {1 Audit oracle} *)

val related_shared :
  n:int -> (Loc.t * Value.t) array -> (Loc.t * Value.t) array -> bool
(** [related_shared ~n ca cb] ({!Mem.snapshot_cells} arrays) — is some
    π ∈ S_N's action on [ca]'s shared cells memory-equivalent to [cb]?
    Decided exactly, by trying all [n!] permutations.  Not a digest: it
    is the bucket equality of {!Config_set}'s canonical [Exact] audit.  Two configurations with equal
    {!canonical_fingerprint_shared} that are {e not} related witness a
    canonicalisation collision (the quotient test's failure event). *)
