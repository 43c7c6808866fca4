open Nvm

(** The per-process announcement structure [Ann_p] (paper, Section 2).

    Each process [p] owns a private non-volatile record with three fields:

    - [Ann_p.op] — which recoverable operation [p] is currently performing
      and with which arguments, written by the {e caller} immediately
      before invoking the operation;
    - [Ann_p.resp] — the operation's response, initialised to ⊥ by the
      caller and persisted by the operation before it returns;
    - [Ann_p.CP] — a checkpoint counter, set to 0 by the caller and
      advanced by the operation / its recovery function.

    The fields are the paper's {e auxiliary state}: Theorem 2 proves that
    detectable implementations of doubly-perturbing objects cannot do
    without writes like these occurring outside the operation itself.

    This module allocates the fields and reads them from the driver
    side; the fiber-side protocol (announce, clear, the [resp] and [CP]
    accesses) is [Detectable.Base]'s, which makes each access
    persist-aware.  The no-aux-state ablations used by experiment E3 are
    obtained by skipping its announcement writes. *)

type t = private { op : Loc.t; resp : Loc.t; cp : Loc.t }

val alloc : Machine.t -> pid:int -> t
(** Allocate the three private NVM fields for process [pid].  [op] and
    [resp] start at ⊥, [cp] at 0. *)

val pending : Machine.t -> t -> (string * Value.t) option
(** Driver-side (no fiber): the operation recorded in [op], if any — what
    the recovery dispatcher consults after a crash. *)
