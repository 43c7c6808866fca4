val read : int
(** Read by {!Reader}. *)

val seam : int
(** A test hook. *)

val unread : int
(** Nothing outside this module reads it. *)
