(** Allocation accounting via GC counter deltas.

    Used by the torture and model-checking hot loops to make their
    allocation behaviour observable ([bytes_per_trial] /
    [bytes_per_node] in reports, CLI output and bench JSON) without
    perturbing it: [snap] never forces a collection.

    [Gc.quick_stat] and [Gc.minor_words] read the calling domain's
    counters, so a snapshot pair meters the code that ran on it. *)

type snap
(** The calling domain's GC counters at one instant. *)

val snap : unit -> snap

type delta = {
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_collections : int;
}
(** Counter differences over a region of one domain's execution. *)

val delta : before:snap -> after:snap -> delta

val allocated_bytes : delta -> float
(** [minor + major - promoted] words, in bytes: everything allocated,
    counting each word once regardless of promotion. *)

val bytes_per : delta -> int -> float
(** [bytes_per d n] is [allocated_bytes d / n], or [0.] if [n <= 0]. *)

val measure : (unit -> 'a) -> 'a * delta
(** [measure f] runs [f ()] on the current domain and returns its result
    with the allocation delta of the call. *)
