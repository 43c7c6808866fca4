open History

(** The paper's concrete doubly-perturbing witnesses (Lemma 3 and appendix
    Lemmas 5–8), packaged for mechanical verification, plus the adversary
    workloads that realise each witness as a concurrent crash attack
    (Figure 2's shape).

    [attack] index 0 is the process [p] of the witness: it performs
    [p]'s share of H1 and then the witnessing operation; the other rows
    carry the perturbed operations and the p-free extension. *)

type entry = {
  obj_name : string;
  spec : Spec.t;
  witness : Perturbing.witness;
  attack : Spec.op list array;
}

val register : entry
(** Lemma 3: [write(v1)] witnesses that a read/write register is
    doubly-perturbing. *)

val counter : entry
(** Lemma 5: [inc]. *)

val cas : entry
(** Lemma 6: [cas(v0,v1)]. *)

val faa : entry
(** Lemma 7: [faa(1)]. *)

val queue : entry
(** Lemma 8: [deq] after [enq v0; enq v1]. *)

val swap : entry
(** Section 5 remark: [swap v1]. *)

val tas : entry
(** Section 5's resettable test-and-set: [tas]. *)

val all : entry list

val max_register_has_no_witness : alphabet:Spec.op list -> max_h1:int -> max_ext:int -> bool
(** Lemma 4, as bounded-exhaustive evidence: no doubly-perturbing witness
    exists for the max register within the search bound. *)
