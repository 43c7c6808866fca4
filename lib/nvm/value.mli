(** Dynamic values stored in the simulated non-volatile memory.

    The paper's algorithms store heterogeneous contents in shared
    variables — e.g. Algorithm 1's register [R] holds a triple
    [(value, writer id, toggle index)] and Algorithm 2's variable [C]
    holds [(value, N-bit vector)].  A single dynamic value universe keeps
    the simulator generic over implemented objects and makes
    memory-equivalence (Theorem 1) and bit accounting (space-complexity
    experiments) uniform. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Tup of t array  (** tuples and fixed-size vectors *)
  | Bot  (** the paper's ⊥: "unset" *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val mix : int -> int -> int
(** [mix h x] folds [x] into accumulator [h] with a 63-bit avalanche
    mixer.  Chains of [mix] are how the model checker fingerprints
    configurations; the mixer spreads single-bit differences across the
    whole word so independent seeds give near-independent digests. *)

val hash_seeded : int -> t -> int
(** [hash_seeded seed v] is a structural 63-bit digest of [v] chained
    from [seed].  Unlike {!hash} (a bucketing hash), this recurses with
    full-width mixing, so two [hash_seeded] streams started from
    different seeds act as independent fingerprint halves. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val bits : t -> int
(** Size of the value in bits, as counted by the space-complexity
    experiments: booleans cost 1 bit, an integer [n] costs the number of
    bits in the binary representation of [abs n] (at least 1), strings
    cost 8 bits per byte, tuples cost the sum of their components, and
    [Bot]/[Unit] cost 1/0 bits respectively. *)

val pair : t -> t -> t
val triple : t -> t -> t -> t

val bool_vec : int -> t
(** [bool_vec n] is an all-[false] vector of [n] booleans, the initial
    value of Algorithm 2's per-process flip vector. *)

(** Accessors: raise [Invalid_argument] on a dynamic type mismatch, which
    in this codebase always indicates a bug in an algorithm
    implementation, never a recoverable condition. *)

val to_bool : t -> bool
val to_int : t -> int
val to_str : t -> string
val to_tup : t -> t array

val nth : t -> int -> t
(** [nth v i] is component [i] of tuple [v]. *)

val set_nth : t -> int -> t -> t
(** [set_nth v i x] is tuple [v] with component [i] replaced by [x]
    (functional update; the original is unchanged). *)

(** {1 Values with cached digests}

    Memory cells and the checker's abstract states hold values bundled
    with their fingerprint digests and bit width, computed once when
    the value is built, so configuration fingerprinting and space
    accounting cost O(1) per cell.  There is no table behind {!hc_of}:
    equal values built apart are distinct nodes, and nothing keeps a
    node alive once its holders drop it.  The digests [da]/[db] are
    computed with fixed seeds, hence identical for the same structural
    value in every process. *)

type hc = private {
  node : t;  (** the underlying structural value *)
  da : int;  (** fixed-seed fingerprint half-digest A *)
  db : int;  (** fixed-seed fingerprint half-digest B *)
  bits : int;  (** [bits node], cached — space accounting without a walk *)
}

val hc_of : t -> hc
(** [v] with its digests.  Small immediates ([Unit], [Bot], booleans,
    [Int 0..255]) return a preallocated constant node (no digest walk,
    no allocation); any other value costs one walk per digest and one
    for [bits]. *)

val hc_equal : hc -> hc -> bool
(** Structural equality.  Physically equal nodes (the constants) compare
    by pointer; otherwise digest [da] is compared first, so a mismatch
    is almost always O(1). *)

val hc_stats : unit -> int * int
(** [(constant, fresh)]: the {!hc_of} calls since the process started
    that a preallocated constant node answered, and those that built a
    fresh node. *)
