open Nvm
open Runtime

(** Unbounded-space detectable CAS, after Ben-David, Blelloch, Friedman
    and Wei [4] — the comparator Algorithm 2 improves on.

    The CAS-able variable [C] holds [(value, (writer pid, writer seq))]
    with a per-process persistent sequence counter making every installed
    tuple globally unique.  Detectability of a crashed CAS needs
    collaboration: before attempting to remove the tuple [(e, (w, s))]
    currently in [C], a process first records [s] into the victim's slot
    [rem[w]] (a monotone maximum maintained by a small CAS loop).  Upon
    recovery, [p] concludes its CAS succeeded iff its tag is still in [C]
    or [rem[p]] has reached its sequence number — the record always
    precedes the removal, so a successfully installed tuple can never
    disappear unrecorded.

    Both [C]'s tag and the [rem] slots grow without bound with the number
    of operations (experiment E2 measures this against Algorithm 2's Θ(N)
    bits).  The [rem] maximum-update loop makes operations lock-free
    rather than wait-free — a simplification of [4]'s wait-free scheme
    that preserves its space behaviour, which is what this baseline is
    for. *)

type t

val create : ?persist:bool -> Machine.t -> n:int -> init:Value.t -> t
val instance : t -> Sched.Obj_inst.t
(** Operations: [read], [cas old new]. *)
