(** Minimal aligned ASCII table printer for experiment output.

    The benchmark harness prints each reproduced figure/table of the paper
    as a plain-text table; this module keeps the columns aligned without
    pulling in a formatting dependency. *)

type t
(** A table under construction. *)

val create : title:string -> string list -> t
(** [create ~title headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row.  Rows shorter than the header are
    padded with empty cells; longer rows raise [Invalid_argument]. *)

val render : t -> string
(** Render the table, title first, columns padded to their widest cell;
    a test hook ({!print} writes it). *)

val print : t -> unit
(** [print t] writes [render t] to stdout followed by a blank line. *)
