open History
open Sched

(** Composition of detectable objects (the paper's Section 6 makes the
    point that detectability — unlike bare durable linearizability — is
    what makes recoverable operations composable: a client that invokes
    several recoverable objects can, after a crash, resolve each in-flight
    operation independently).

    [combine] builds one object out of several named components.  An
    operation on the composite is a component operation with the
    component's name prefixed ("acct/cas", "log/enq"); announce, invoke,
    recover and clear route to the owning component, each of which keeps
    its own announcement structure.  Recovery after a crash therefore
    resolves exactly the component operation that was in flight — the
    composability detectability buys.

    The composite's sequential specification is the product of the
    component specifications, so the standard checker validates composite
    histories without modification.  Only the composition tests build
    composites, so the module lives with them. *)

val lift : string -> Spec.op -> Spec.op
(** [lift name op] prefixes [op] with the component name. *)

val product_spec : (string * Spec.t) list -> Spec.t
(** Product specification: the abstract state is the tuple of component
    states, operations are routed by prefix. *)

val combine : (string * Obj_inst.t) list -> Obj_inst.t
(** [combine components] — names must be distinct and non-empty, and all
    components must live in the same machine.  At most one component
    operation per process is in flight at a time (the composite presents
    one sequential interface per process, like any object). *)
