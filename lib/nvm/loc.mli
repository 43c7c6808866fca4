(** Locations (named cells) in the simulated non-volatile memory.

    The paper's system model distinguishes shared variables — accessed by
    all processes and compared by memory-equivalence in Theorem 1 — from
    per-process private non-volatile variables such as [RD_p], [T_p] and
    the announcement structure [Ann_p].  The distinction matters for the
    space-complexity experiments (only shared bits count toward the lower
    bound) and for the memory-equivalence relation. *)

type kind =
  | Shared  (** accessible by every process *)
  | Private of int  (** private NVM of the given process id *)

type t = private { id : int; name : string; kind : kind }
(** A handle into a {!Mem.t} store.  Locations are only created by
    [Mem.alloc] and are valid only for the store that allocated them. *)

val make : id:int -> name:string -> kind:kind -> t
(** For use by {!Mem} only. *)

val is_shared : t -> bool
