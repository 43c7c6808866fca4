(** The one baseline model behind every committed BENCH file.

    A baseline file is one suite's table of rows (schema
    [detectable-bench/rows-v1], documented in docs/TORTURE.md).  A row
    is what one measured run produced: exact deterministic [counters],
    timed [metrics], and the gates declared for it.  Both
    [bench/main.exe] (which writes and re-runs rows) and
    [bench/json_check.exe] (which validates recorded rows) read the
    files through this module, and both judge rows with the same
    {!check_row} and {!invariants}. *)

val schema : string
(** ["detectable-bench/rows-v1"]. *)

val suites : string list
(** ["torture"; "modelcheck"; "lincheck"; "lowerbound"]. *)

val tolerance : float
(** 10: machines differ, so floors and recorded throughput are only
    held to within this factor. *)

type row = {
  id : string;  (** unique within the file *)
  params : (string * Tiny_json.t) list;
      (** everything needed to re-run the row (plus invariant
          thresholds such as [min_node_reduction]) *)
  counters : (string * Tiny_json.t) list;
      (** [Int] or [Bool]; a pure function of [params] and the code *)
  metrics : (string * float) list;  (** timed, machine-dependent *)
  min : (string * float) list;
      (** floors: a fresh metric times {!tolerance} must reach them *)
  max : (string * float) list;
      (** ceilings on allocation metrics, checked exactly *)
  recheck : bool;
      (** [false]: too slow to re-run; [--compare] validates the
          recorded values instead, and [--baseline] carries the row
          over from the existing file *)
}

val spec :
  ?min:(string * float) list ->
  ?max:(string * float) list ->
  ?recheck:bool ->
  string ->
  (string * Tiny_json.t) list ->
  row
(** A row declaration: id, params and gates, no measurements yet. *)

val to_json : suite:string -> row list -> string
(** The one writer. *)

val of_json : Tiny_json.t -> string * row list
(** [(suite, rows)]; raises [Tiny_json.Error] naming the offending
    field on any schema violation. *)

val check_row : recorded:row -> fresh:row -> string list
(** The [--compare] verdict on one re-run row, one line per failure:
    DETERMINISM MISMATCH (a counter differs), ALLOC REGRESSION (a [max]
    ceiling is exceeded), THROUGHPUT GATE (a [min] floor is missed
    even at {!tolerance}) and PERF REGRESSION (a [*_per_sec] metric
    fell below its recorded value by more than {!tolerance}). *)

val invariants : string -> row list -> string list
(** The suite's cross-row invariants, one line per failure; raises
    [Tiny_json.Error] if a row lacks a counter or param they read. *)
