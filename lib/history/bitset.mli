(** Functional bitsets over operation indices.

    The linearizability checker historically packed the set of linearized
    operations into one [int], capping histories at 62 operations.  This
    module keeps that representation as the fast path ([Small], a single
    immediate word, all the hot operations a couple of machine
    instructions) and adds a chunked slow path ([Big], 62 bits per array
    word) that kicks in only for indices ≥ 62 — long torture histories
    are no longer rejected, short ones pay nothing new.

    Values are immutable; [set]/[union] return fresh sets.  [Small w] and
    a zero-padded [Big] denoting the same set are {e equal} and hash
    identically — observations are representation-blind. *)

type t = private
  | Small of int  (** indices 0..61 packed into one word *)
  | Big of int array  (** word [k] holds indices [62k .. 62k+61] *)

val word_bits : int
(** Bits per word (62 — keeps every word a non-negative OCaml int); a
    test hook. *)

val empty : t

val mem : t -> int -> bool
(** Raises [Invalid_argument] on a negative index. *)

val set : t -> int -> t
(** [set t i] is [t] with index [i] added (functional; [t] unchanged). *)

val union : t -> t -> t
(** Allocation-free when both operands are [Small] and one already
    contains the other (the physical operand is returned); otherwise a
    [Small]/[Small] union stays [Small]. *)

val subset : t -> t -> bool
(** [subset a b] iff every index of [a] is in [b].  [Small]/[Small] is a
    single word test. *)

val equal : t -> t -> bool
(** [Small]/[Small] is one integer compare (the representation invariant
    — a [Big] is never demoted and [Small]/[Big] compare through
    zero-padding — keeps this sound). *)

val hash : t -> int
(** Mixes every nonzero word with its position ({!Nvm.Value.mix}), so
    hash quality does not degrade with set width. *)
