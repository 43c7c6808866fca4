open Nvm
open Runtime
open History
open Sched

(** The catalog of objects under test: the paper's detectable objects
    (Algorithms 1–3 and the Section 5 transformations), the
    unbounded-tag baselines and the ablations that must fail.  It is
    the one place that maps an object name to its constructor, its
    random workload family and its Theorem 2 attack; the CLI, the
    benchmark harness, the experiments and the tests all build their
    objects here. *)

type t
(** One catalog entry. *)

val all : t list
(** Every entry, in the order [detect_cli -o] lists them: [drw], [dcas],
    [dmax], [dcounter], [dfaa], [dswap], [dtas], [dbounded], [dqueue],
    [dprotected], [urw], [ucas], [broken-rw-refail], [broken-rw-reexec],
    [broken-drw-no-toggle], [broken-dcas-no-vec]. *)

val name : t -> string

val find : string -> t
(** Raises [Invalid_argument] listing the known names when none
    matches. *)

val mk :
  ?model:Machine.model ->
  ?persist:bool ->
  ?capacity:int ->
  t ->
  n:int ->
  unit ->
  Machine.t * Obj_inst.t
(** [mk t ~n ()] builds the object for [n] processes on a fresh machine
    of the given [model] (default [Private_cache]), holding 0 (a clear
    flag for [dtas]; [dbounded] saturates at 3).
    [persist] (default [false]) follows every shared access with a
    persist (the Section 6 transformation); [capacity] (default 256)
    only sizes the queue.  Raises [Invalid_argument] when [n < 1], as
    soon as [~n] is applied — before any machine is built. *)

val workloads :
  ?values:int ->
  t ->
  Dtc_util.Prng.t ->
  procs:int ->
  ops_per_proc:int ->
  Spec.op list array
(** The entry's random workload family ({!Sched.Workload}).  [values]
    overrides the family's value domain (register, CAS and swap 3,
    max register 8, queue 5) or, for fetch-and-add, its largest delta
    (4); the counter and test-and-set families take no values.  Raises
    [Invalid_argument] when [ops_per_proc < 0]. *)

val attack : t -> Perturb.Witnesses.entry
(** The entry's Theorem 2 attack: its type's doubly-perturbing witness
    ({!Perturb.Witnesses}).  The max register has none (Lemma 4); its
    entry carries the register witness and a max-register attack
    workload, which Algorithm 3 must survive without auxiliary state. *)

val machine_for : Fault_model.t -> Machine.model * bool
(** The machine a fault model needs, as [(model, persist)]: [Atomic]
    keeps the private-cache machine; every other model only bites when a
    crash can lose volatile state, so it runs on a shared-cache machine
    with persist-instrumented objects. *)
