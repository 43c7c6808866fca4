open History

(** Executable versions of the paper's perturbation definitions
    (Section 5, Definition 3).

    The definitions are stated over sequential histories of the abstract
    object, so they are decidable questions about the {!Spec.t} transition
    function.  Process identities only enter through disjointness
    constraints ("an operation by a different process", "a p-free
    extension"); since our specifications are process-oblivious, any
    assignment of distinct processes to the quantified operations
    satisfies them, and the definitions reduce to response comparisons —
    which is what this module computes. *)

val is_perturbing :
  Spec.t -> history:Spec.op list -> op:Spec.op -> wrt:Spec.op -> bool
(** [is_perturbing spec ~history ~op ~wrt]: does [wrt] return different
    responses in [history ∘ op ∘ wrt] and [history ∘ wrt]?  (Definition 3,
    "OP is perturbing with respect to OP' after H".)  A test oracle. *)

type witness = {
  h1 : Spec.op list;  (** the sequential history H1 *)
  op_p : Spec.op;  (** the witnessing operation of process p *)
  wrt1 : Spec.op;  (** the operation OP' it perturbs after H1 *)
  ext : Spec.op list;  (** p-free extension of H1 ∘ OP_p ∘ OP' giving H2 *)
  wrt2 : Spec.op;  (** the operation a second OP_p perturbs after H2 *)
}

val pp_witness : Format.formatter -> witness -> unit

val verify_witness : Spec.t -> witness -> (unit, string) result
(** Check both conditions of Definition 3 for the candidate witness. *)

val search :
  Spec.t -> alphabet:Spec.op list -> max_h1:int -> max_ext:int -> witness option
(** Bounded-exhaustive search for a doubly-perturbing witness: all
    histories over [alphabet] up to length [max_h1] for H1, all
    single-operation choices for OP_p/OP'/OP'', all extensions up to
    [max_ext].  [None] means the object has no witness within the bound —
    the evidence behind Lemma 4 (max register) in experiment E7. *)
