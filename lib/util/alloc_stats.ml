(* Allocation accounting for the hot loops.

   Everything here reads the calling domain's counters without forcing a
   collection: [Gc.quick_stat], except the minor count, which OCaml 5.1's
   [quick_stat] advances only at a minor collection ([Gc.minor_words]
   also counts the current minor heap).  A [snap] is taken before and
   after a region of interest; the [delta] is the allocation
   attributable to that region.

   [allocated_bytes] follows the standard OCaml accounting identity:
   minor_words + major_words - promoted_words (promoted words would
   otherwise be counted twice, once in each heap). *)

type snap = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
}

let snap () =
  let s = Gc.quick_stat () in
  {
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
  }

type delta = {
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_collections : int;
}

let delta ~before ~after =
  {
    d_minor_words = after.minor_words -. before.minor_words;
    d_promoted_words = after.promoted_words -. before.promoted_words;
    d_major_words = after.major_words -. before.major_words;
    d_minor_collections = after.minor_collections - before.minor_collections;
  }

let allocated_bytes d =
  (d.d_minor_words +. d.d_major_words -. d.d_promoted_words)
  *. float_of_int (Sys.word_size / 8)

let bytes_per d n =
  if n <= 0 then 0. else allocated_bytes d /. float_of_int n

let measure f =
  let before = snap () in
  let r = f () in
  (r, delta ~before ~after:(snap ()))
