(** The shared-cache persistency model (paper, Section 6).

    In the private-cache model, primitive operations apply directly to the
    NVM.  In the more realistic shared-cache model there is a single
    volatile shared cache: primitive operations hit the cache, and values
    only reach the NVM when explicitly persisted (or when the cache
    happens to write a line back).  On a crash the cache contents are
    lost — except that the hardware may have silently written back any
    subset of the dirty lines, so a correct algorithm must tolerate every
    write-back subset.

    This module layers such a cache over a {!Mem.t}.  The crash operation
    takes a per-line decision function so that tests and the model checker
    can explore adversarial write-back choices. *)

type t

val create : Mem.t -> t

val read : t -> Loc.t -> Value.t
val write : t -> Loc.t -> Value.t -> unit
val cas : t -> Loc.t -> Value.t -> Value.t -> bool
val faa : t -> Loc.t -> int -> int

val persist : t -> Loc.t -> unit
(** Write the location's cache line (if dirty) back to NVM. *)

val persist_all : t -> unit
(** Full fence: write back every dirty line. *)

val dirty_locs : t -> Loc.t list
(** Locations whose newest value has not yet been persisted, in
    allocation-id order (deterministic); a test hook. *)

val crash : t -> keep:(Loc.t -> bool) -> unit
(** [crash c ~keep] simulates a power failure: each dirty line is written
    back to NVM iff [keep] returns [true] for it, then the whole cache is
    discarded.  [keep] models the hardware's arbitrary write-back
    behaviour at the instant of failure. *)

val crash_faulted : t -> fault:Fault_model.t -> prng:Dtc_util.Prng.t -> unit
(** [crash_faulted c ~fault ~prng] simulates a power failure under a
    {!Fault_model.t}: the dirty lines reach (or miss, or partially
    reach) NVM as the model dictates, drawing every random decision
    from [prng], then the whole cache is discarded.  Lines are visited
    in allocation-id order so the outcome is a deterministic function
    of [(fault, prng, dirty set)].  [~fault:Atomic] is equivalent to
    [crash ~keep:(fun _ -> true)] and consumes no randomness. *)

val entries : t -> (Loc.t * Value.t) list
(** The dirty set, in allocation-id order (deterministic) — a
    checkpoint token for {!restore_entries}.  The undo engine snapshots
    the cache with this when it marks a configuration. *)

val restore_entries : t -> (Loc.t * Value.t) list -> unit
(** Replace the dirty set with a previously captured {!entries} list. *)
