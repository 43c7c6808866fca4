open Runtime

(** A detectable durable FIFO queue, in the style of Friedman, Herlihy,
    Marathe and Petrank's durable lock-free queue (the paper's reference
    [9]), adapted to the simulated NVM machine.

    Representation: a write-once linked list over a pre-allocated node
    pool.  [head] points at the last consumed (dummy) node; [tail] is a
    lagging hint for appenders.  Node fields [next] (⊥ → node id) and
    [deq_id] (⊥ → consumer pid) are written exactly once, and node ids
    are never recycled, so there is no ABA anywhere.

    Detectability:
    - {e enqueue}: before its link CAS, process [p] persists the
      prospective predecessor in [att_p] and its own node id in
      [node_p]; since [next] fields are write-once, recovery concludes
      the operation was linearized iff [pool[att_p].next = node_p];
    - {e dequeue}: a consumer claims a node by CASing its [deq_id] from ⊥
      to its pid, having first persisted the candidate node in [datt_p];
      recovery concludes success iff [pool[datt_p].deq_id = p] and then
      re-reads the claimed value;
    - the per-operation cells [node_p], [att_p], [datt_p] are invalidated
      inside the announcement, before it commits.

    Both operations are lock-free (they help advance [head]/[tail]).
    The pool bounds the number of enqueues of one run — a harness
    parameter, not a property of the algorithm. *)

type t

val create : ?persist:bool -> Machine.t -> n:int -> capacity:int -> t
(** [capacity] is the maximum number of enqueues the run may perform
    (nodes are never recycled). *)

val instance : t -> Sched.Obj_inst.t
(** Operations: [enq v], [deq] (returns [Str "empty"] on an empty
    queue). *)
