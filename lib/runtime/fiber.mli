open Nvm

(** Crash-interruptible process fibers.

    A process's program is ordinary OCaml code that performs its primitive
    memory operations through the effect operations below ({!read},
    {!write}, {!cas}, …).  Each primitive operation suspends the fiber and
    hands the pending {!Prim.request} to the scheduler, which applies it
    to the machine and resumes the fiber with the result.  This gives the
    simulation the exact granularity of the paper's model: a system-wide
    crash can be injected between any two primitive steps, and killing a
    fiber discards its continuation — i.e. all of the process's volatile
    local variables — while the simulated NVM survives.

    Programs must not catch the {!Crashed} exception: it is the mechanism
    by which a crash unwinds a fiber. *)

exception Crashed
(** Raised inside a fiber when it is {!kill}ed.  Never catch it. *)

(** {1 Effect operations — to be called only from inside a fiber} *)

val with_ghost_feed : (Prim.request -> Value.t option) -> (unit -> 'a) -> 'a
(** [with_ghost_feed f body] installs [f] as the process's ghost feed
    for the duration of [body]: every primitive step performed by fibers
    running inside [body] first asks [f] for the response, and only
    suspends on the effect when [f] returns [None].  This lets a ghost
    replay re-execute a logged prefix as one straight-line run (no
    per-step suspension); see [Session.rebuild].  Feeds nest by
    save/restore; the previous feed is restored even on exceptions. *)

val read : Loc.t -> Value.t
val write : Loc.t -> Value.t -> unit

val cas : Loc.t -> Value.t -> Value.t -> bool
(** Atomic compare-and-swap on a base object; returns success. *)

val faa : Loc.t -> int -> int
(** Atomic fetch-and-add on an integer base object; returns the old
    value. *)

val persist : Loc.t -> unit
(** Explicit persist instruction (no-op in the private-cache model). *)

val yield : unit -> unit

(** {1 Fiber lifecycle — driver side} *)

type t
(** A started fiber.  Starting runs the program up to (and not including)
    its first primitive step: such prefix code is purely local computation
    and is invisible to other processes, so it costs no simulated step. *)

type status =
  | Pending of Prim.request  (** suspended, waiting for its next step *)
  | Done of Value.t  (** program returned *)
  | Killed  (** crashed; continuation discarded *)

val start : (unit -> Value.t) -> t
val status : t -> status

val is_pending : t -> bool
(** [is_pending f] iff [status f] is [Pending _], without allocating the
    [status] box — the scheduler's runnable-set scan runs once per
    simulated step. *)

val is_done : t -> bool
(** [is_done f] iff [status f] is [Done _], allocation-free. *)

val pending_request : t -> Prim.request
(** The pending request of a [Pending] fiber, without the [status] box.
    Raises [Invalid_argument] if the fiber is not pending. *)

val resume : t -> Value.t -> unit
(** [resume f result] feeds [result] to the pending primitive step and
    runs the fiber to its next suspension (or completion).  Raises
    [Invalid_argument] if the fiber is not pending. *)

val kill : t -> unit
(** Crash the fiber: its continuation is discontinued with {!Crashed} and
    the status becomes [Killed].  Idempotent on non-pending fibers. *)
