open Nvm

(** A set of shared-memory configurations up to the paper's
    memory-equivalence (equal contents of every shared variable; private
    NVM and local state ignored).

    Theorem 1 counts reachable pairwise non-memory-equivalent
    configurations; both the explorer and experiment E1 accumulate
    configurations here, read from the live store with {!add_live}.
    The default representation stores only the two-word
    {!Mem.live_shared_a}/{!Mem.live_shared_b} digest per configuration
    — O(1) space per member and allocation-free insertion — which is
    what lets the explorer call {!add_live} at every DFS node.  [Exact]
    mode keys on the same digest and additionally keeps a snapshot of
    each configuration in its digest's bucket, turning silent
    fingerprint collisions into an audited {!collisions} count; use it
    to validate fingerprint-mode results on workloads small enough to
    afford the snapshots. *)

type mode =
  | Fingerprint  (** digests only: O(1) space/member, no false splits *)
  | Exact  (** digests + snapshots: counts exactly, audits collisions *)

type t

val create : ?mode:mode -> ?canonical:int -> unit -> t
(** Default mode: [Fingerprint].

    [~canonical:n] makes the set count configurations {e modulo} the
    S_N process-permutation action instead of one by one: members are
    keyed on {!Sym.canonical_fingerprint_shared} (one key per orbit)
    and each new orbit contributes its exact {!Sym.orbit_size_shared}
    to {!cardinal}.  Under an id-symmetric layout every π-image of a
    reachable configuration is itself reachable, so the weighted total
    remains a certified lower bound on the reachable
    pairwise-non-memory-equivalent count — this is what lets the
    [`Dpor_sym_memo] explorer report Theorem 1 counts while visiting
    only one representative per orbit.  A canonicalisation collision
    (distinct orbits, equal fingerprint) merges in [Fingerprint] mode
    and can only {e under}-count; [Exact] mode audits exactly that
    event, with orbit membership ({!Sym.related_shared}) as the bucket
    equality.  Raises [Invalid_argument] if [n] is outside [1..20]
    ([N!] weights would overflow). *)

val canonical : t -> int option
(** [Some n] iff the set counts orbit-weighted canonical keys. *)

val add_live : t -> Mem.t -> bool
(** Insert the store's current shared configuration; [true] iff it was
    new (no memory-equivalent — under a canonical set, no π-related —
    configuration was present).  In [Fingerprint] mode this allocates
    nothing; in [Exact] mode it snapshots for the audit bucket. *)

val cardinal : t -> int
(** Number of distinct configurations.  O(1): a running count is
    maintained so per-node callers never pay a table fold.  Canonical sets return the orbit-size-weighted
    total (see {!create}); plain sets count members. *)

val orbits : t -> int
(** Distinct keys actually stored ([Exact] mode: plus audited
    collisions).  Equals {!cardinal} for plain sets; for canonical sets
    it is the number of distinct orbits, of which {!cardinal} is the
    weighted expansion. *)

val collisions : t -> int
(** [Exact] mode: how many inserted configurations shared a fingerprint
    with a previously inserted, non-memory-equivalent one.  Any non-zero
    value means fingerprint-mode counts would have under-reported.
    Always 0 in [Fingerprint] mode (collisions are invisible there). *)
