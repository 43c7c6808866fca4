(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the repository goes through this module so
    that a run is fully reproducible from a single printed seed.  The
    generator is the splitmix64 mixer of Steele, Lea and Flood, which has a
    full 2^64 period and excellent statistical quality for simulation
    purposes. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from an integer seed.  Two generators
    created from the same seed produce identical streams. *)

val copy : t -> t
(** [copy g] is an independent generator starting from [g]'s current
    state; a test hook. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is {e exactly} uniform in [\[0, bound)] (rejection
    sampling over 62-bit draws, so there is no modulo bias even for
    bounds that do not divide 2^62).  Requires [bound > 0].  May consume
    more than one raw draw, with probability [2^62 mod bound / 2^62]. *)

val bool : t -> bool
(** Uniform boolean. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val pick : t -> 'a list -> 'a
(** [pick g xs] is a uniformly chosen element of [xs].
    Requires [xs] non-empty. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val split : t -> t
(** [split g] derives a statistically independent generator and advances
    [g].  Used to give each process its own stream. *)

val stream : int -> index:int -> t
(** [stream root ~index] is the [index]-th child generator of the seed
    [root], derived in O(1) without materialising or advancing the root
    generator: its initial state is the [index]-th raw output of
    [create root].  Consequently [stream root ~index:i] behaves exactly
    like the generator obtained by calling {!split} on [create root]
    [i+1] times and keeping the last result — but any worker can compute
    any stream directly.  This is the determinism contract of the
    torture engine: trial [i] always runs on [stream root ~index:i], no
    matter which worker process executes it or how many exist.
    Requires [index >= 0]. *)

val stream_seed : int -> index:int -> int
(** [stream_seed root ~index] is a non-negative integer seed (62 bits)
    deterministically derived from the [index]-th child stream, for APIs
    that take [int] seeds (e.g. workload generators). *)
