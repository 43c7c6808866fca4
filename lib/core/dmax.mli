open Runtime

(** Algorithm 3: a detectable max register that needs {e no} auxiliary
    state.

    The max register is the paper's counterpoint to Theorem 2: it is
    perturbable but {e not} doubly-perturbing (Lemma 4), and indeed its
    operations can recover by simply re-invoking themselves — neither the
    operation nor its recovery reads any state written outside the
    operation (no checkpoint, no persisted response, no operation tags).

    State: a shared integer array [MR[N]]; [WRITE-MAX(v)] raises [MR[p]]
    to [v] if below it (idempotent and monotone, which is exactly why
    re-invocation is safe); [READ] repeatedly collects [MR] until two
    consecutive collects agree (a double collect) and returns the maximum.
    [READ] is obstruction-free (a solo run terminates after two passes);
    [WRITE-MAX] is wait-free.

    The announcement structure is still {e written} by the caller — the
    system needs to know which recovery function to dispatch after a
    crash — but, unlike Algorithms 1 and 2, no operation or recovery code
    here ever {e reads} it: delete every [Ann] write except the dispatch
    tag and the algorithm is untouched. *)

type t

val create : ?persist:bool -> Machine.t -> n:int -> init:int -> t
val instance : t -> Sched.Obj_inst.t
(** Operations: [read], [write_max v]. *)
