(* In-memory span recorder for the traced pass.

   Spans are stored column-wise in growable arrays, so recording one
   allocates nothing but the occasional doubling, and are written out
   only when the benchmark ends.  A span has a name, a start and end on
   the monotonic clock, the index of the span that caused it (-1 for a
   root) and a unit id: the trial index inside a torture rep, the rep
   number for a root span. *)

type name =
  | Rep  (** root: one traced repetition *)
  | Run_trial  (** [Torture.run_trial] *)
  | Mk  (** the object constructor [mk ()] *)
  | Driver_run  (** [Sched.Driver.run] *)
  | Check  (** [Sched.Driver.check] *)
  | Merge  (** [Torture.merge] *)
  | Campaign_run  (** [Campaign.run] *)
  | Explore  (** [Modelcheck.Explore.explore] *)

let name_to_string = function
  | Rep -> "rep"
  | Run_trial -> "torture.run_trial"
  | Mk -> "core.mk"
  | Driver_run -> "sched.driver_run"
  | Check -> "history.check"
  | Merge -> "torture.merge"
  | Campaign_run -> "campaign.run"
  | Explore -> "modelcheck.explore"

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  mutable n : int;
  mutable names : name array;
  mutable parents : int array;
  mutable units : int array;
  mutable starts : float array;
  mutable stops : float array;
}

let create () =
  let c = 1024 in
  {
    n = 0;
    names = Array.make c Rep;
    parents = Array.make c 0;
    units = Array.make c 0;
    starts = Array.make c 0.0;
    stops = Array.make c 0.0;
  }

let grow t =
  let c = 2 * Array.length t.names in
  let ext a fill = Array.append a (Array.make (c - Array.length a) fill) in
  t.names <- ext t.names Rep;
  t.parents <- ext t.parents 0;
  t.units <- ext t.units 0;
  t.starts <- ext t.starts 0.0;
  t.stops <- ext t.stops 0.0

(** Open a span now; returns its index, to pass to {!stop} and as the
    [parent] of its children. *)
let start t name ~parent ~unit_id =
  if t.n = Array.length t.names then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.names.(i) <- name;
  t.parents.(i) <- parent;
  t.units.(i) <- unit_id;
  t.starts.(i) <- now ();
  i

let stop t i = t.stops.(i) <- now ()
let duration t i = t.stops.(i) -. t.starts.(i)

(** Durations of every span with this name, in recording order. *)
let durations t name =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.names.(i) = name then acc := duration t i :: !acc
  done;
  !acc

let total t name = List.fold_left ( +. ) 0.0 (durations t name)

(** Share of the root spans' time covered by their direct children: the
    part of the traced wall time the layer spans account for. *)
let coverage t =
  let roots = ref 0.0 and covered = ref 0.0 in
  for i = 0 to t.n - 1 do
    if t.parents.(i) < 0 then roots := !roots +. duration t i
    else if t.parents.(t.parents.(i)) < 0 then
      covered := !covered +. duration t i
  done;
  if !roots > 0.0 then !covered /. !roots else 0.0

(** One JSON line per span: name, start and end (seconds since the
    first span), parent index, unit id. *)
let write t path =
  let base = if t.n > 0 then t.starts.(0) else 0.0 in
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"unit\":%d}\n"
      i (name_to_string t.names.(i)) (t.starts.(i) -. base) (t.stops.(i) -. base)
      t.parents.(i) t.units.(i)
  done;
  close_out oc
