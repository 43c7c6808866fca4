open Runtime

(** The {e durable} (but not detectable) lock-free queue, after the first
    of Friedman et al.'s three queue variants — the paper's reference [9]
    presents the durable and the detectable queue precisely to exhibit
    the trade this module makes measurable.

    Structurally this is the same write-once linked list as
    {!Detectable.Dqueue}, with all the detectability state removed: no
    per-operation node/attempt records, no persisted responses.  After a
    crash the queue's {e state} is perfectly consistent (durable
    linearizability holds — every history this object produces passes the
    checker), but recovery answers {!Sched.Obj_inst.unknown}: the caller
    cannot learn whether its interrupted operation took effect.  Retrying
    may duplicate an enqueue or re-consume nothing; giving up may lose
    one.  Experiment E9 counts exactly those duplicated and lost
    operations against the detectable queue's zero. *)

type t

val create : ?persist:bool -> Machine.t -> n:int -> capacity:int -> t
val instance : t -> Sched.Obj_inst.t
(** Operations: [enq v], [deq]. *)
