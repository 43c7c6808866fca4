(** The explorer's subtree memo: an exact map from a non-negative
    63-bit key to a four-counter summary (logical nodes strictly below,
    executions, truncated executions, violations).

    It is an open-addressed table over one flat Bigarray of ints, off
    the GC heap, two words per slot: the key and a payload word.  A
    summary whose four counters each fit in 15 bits is packed into the
    payload word; any other is kept in a spill int array of four ints
    per entry, and the payload word holds its negative index.  The
    table stays at most 3/4 full and doubles when an insertion would
    pass that.  Nothing is ever dropped: [find] after [set] returns
    exactly what was set. *)

type t

val create : int -> t
(** [create cap] is an empty table of [cap] slots; [cap] must be a
    positive power of two.  It grows on demand. *)

val length : t -> int
(** number of distinct keys stored *)

val bytes : t -> int
(** bytes held by the slots and the spill array.  The slots live off
    the GC heap, so [Gc] statistics do not count them. *)

val find : t -> int -> int
(** [find t k] is the slot holding key [k], or [-1] if [k] is absent.
    The slot is valid for the readers below until the next {!set}.
    [k] must be non-negative. *)

val nodes_at : t -> int -> int
val execs_at : t -> int -> int
val trunc_at : t -> int -> int
val viols_at : t -> int -> int

val set : t -> int -> nodes:int -> execs:int -> trunc:int -> viols:int -> unit
(** [set t k ...] binds [k] (non-negative) to the summary, replacing any
    previous binding. *)
