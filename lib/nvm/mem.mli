(** The simulated non-volatile memory store.

    A store is a flat array of {!Value.t} cells addressed by {!Loc.t}
    handles.  It survives crashes by construction (the crash machinery
    only discards process continuations and caches, never the store).

    The store also keeps the bookkeeping needed by the paper's
    space-complexity experiments: for every location it tracks the largest
    value (in bits) ever resident, so an implementation's footprint can be
    measured as it runs. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] makes an empty store.  [capacity] pre-sizes the cell
    arena (default 64, clamped to at least 1); the arena still grows by
    doubling when allocation outruns it, so this is purely a hot-loop
    pre-sizing knob. *)

val alloc : t -> name:string -> kind:Loc.kind -> Value.t -> Loc.t
(** [alloc mem ~name ~kind init] allocates a fresh cell holding [init]. *)

val read : t -> Loc.t -> Value.t
val write : t -> Loc.t -> Value.t -> unit

val cas : t -> Loc.t -> Value.t -> Value.t -> bool
(** [cas mem loc expected desired] atomically (w.r.t. the simulation)
    replaces the contents with [desired] iff the current contents equal
    [expected]; returns whether the swap happened. *)

val faa : t -> Loc.t -> int -> int
(** [faa mem loc delta] fetch-and-adds on an integer cell, returning the
    previous value. *)

val n_locs : t -> int

val loc_by_id : t -> int -> Loc.t
(** Inverse of allocation order; raises [Invalid_argument] if out of
    range. *)

(** {1 Write journal}

    The undo-engine's backtracking substrate.  While journaling is on,
    every mutation ([write], successful [cas], [faa]) pushes [(cell id, old contents, old
    max_bits)] onto a log; {!rewind} pops back to a {!mark} in
    O(writes-since-mark), restoring contents {e and} the [max_bits]
    high-water marks (the bf9564b stale-accounting class of bug).

    Marks are LIFO: rewinding to a mark invalidates every mark taken
    after it.  Rewinding past an allocation is rejected (the explorer
    never allocates mid-exploration). *)

type mark
(** A journal position: the pair (arena length, journal depth).  Marks
    are mutable so that a caller checkpointing at every DFS node can
    refill one pooled mark with {!mark_into} instead of allocating. *)

val set_journal : t -> bool -> unit
(** Turn journaling on or off.  Turning it off discards the log (and
    invalidates all marks). *)

val mark : t -> mark
(** A fresh mark of the current position: [mark_into] on a new mark.
    Raises [Invalid_argument] if journaling is off. *)

val mark_into : t -> mark -> unit
(** O(1).  Overwrite a mark with the current position.  Raises
    [Invalid_argument] if journaling is off. *)

val rewind : t -> mark -> unit
(** Pop the journal back to [mark], restoring each logged cell's
    contents and high-water mark.  Raises [Invalid_argument] if
    journaling is off, if allocations happened since the mark, or if
    the mark is stale (deeper than the current log). *)

val journal_depth : t -> int
(** Current number of live journal entries; a test hook. *)

val rewound_cells : t -> int
(** Cumulative number of cell restorations performed by {!rewind} over
    this store's lifetime (the undo-engine throughput metric). *)

(** {1 Snapshots and memory-equivalence}

    Snapshots are test oracles and the bucket representation of
    {!Modelcheck.Config_set}'s [Exact] audit: configurations are
    digested, counted and orbit-weighted from the live store (the
    [live_] readers below), and a snapshot only ever checks that
    digest.  The checkpoint form is {!mark}/{!rewind}; a snapshot is
    never written back. *)

type snapshot

val snapshot : t -> snapshot
(** Captures every cell's contents. *)

val snapshot_cells : snapshot -> (Loc.t * Value.t) array
(** The snapshotted cells as [(location, contents)] pairs in allocation
    order — the representation {!Modelcheck.Sym.related_shared}'s
    orbit-membership check works over.  Allocates a fresh array;
    audit/test paths only. *)

val equal_shared : snapshot -> snapshot -> bool
(** The paper's memory-equivalence: two configurations are
    memory-equivalent when every {e shared} variable has the same value in
    both.  Private NVM and local state are excluded.  The bucket
    equality of a plain [Exact] {!Modelcheck.Config_set}. *)

val hash_shared : snapshot -> int
(** Hash consistent with {!equal_shared}; a test oracle. *)

val equal_full : snapshot -> snapshot -> bool
(** Equality over all cells, shared and private; a test oracle for
    {!rewind}. *)

(** {1 Fingerprints}

    Compact (two-word) digests used by the model checker's visited set
    and by {!Modelcheck.Config_set}'s fingerprint mode.  Each half is
    the XOR of a per-cell term mixed from the cell index and the
    value-digest cached with the cell's value (a Zobrist scheme); the two
    halves use the independent [da]/[db] digest streams, so a pair
    collision between distinct configurations needs both 63-bit streams
    to collide at once.  XOR terms make the digest incrementally
    maintainable: every mutation adjusts accumulators in O(1), and the
    [live_] variants below just read them — two loads, no scan, no
    allocation — which is what the model checker's per-node hot path
    costs. *)

val fingerprint_shared : snapshot -> int * int
(** Digest of a snapshot's shared cells, consistent with
    {!equal_shared}: memory-equivalent snapshots have equal
    fingerprints.  The test oracle for {!live_shared_a}/{!live_shared_b},
    which compute the same pair from the live store. *)

val live_shared_a : t -> int

val live_shared_b : t -> int
(** The two halves of the current contents' shared-cell digest — equal
    to {!fingerprint_shared} of a snapshot taken now, without
    materialising one.  {!Modelcheck.Config_set} keys on them. *)

val live_full_a : t -> int

val live_full_b : t -> int
(** The two halves of the digest over {e all} cells, shared and private
    — the memory half of the explorer's visited-set key (recovery reads
    private NVM, so pruning must distinguish private differences).
    Scalars, not a pair: the explorer reads them at every DFS node, and
    a pair would allocate just to be deconstructed. *)

(** {1 Space accounting} *)

val shared_bits : t -> int
(** Current footprint: sum of {!Value.bits} over shared cells; a test
    hook. *)

val max_shared_bits : t -> int
(** High-water mark of per-cell maxima: sum over shared cells of the
    largest size each has held since creation.  This is the
    honest measure of how much NVM the implementation must provision. *)

val max_bits_of : t -> Loc.t -> int
(** High-water mark of one cell. *)
