open Dtc_util

(** The experiment registry: every reproduced figure/table of the paper,
    addressable by id.  [detect_cli exp] prints all of them, in order;
    [detect_cli exp <id>] prints one. *)

type entry = {
  id : string;  (** e.g. "E1" *)
  paper_artefact : string;  (** which figure/theorem/claim it regenerates *)
  descr : string;
  tables : unit -> Table.t list;
}

val all : entry list

val find : string -> entry option
(** Case-insensitive lookup by id. *)

val run_one : entry -> unit
(** Print the entry's header and tables to stdout. *)

val run_all : unit -> unit
