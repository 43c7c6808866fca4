(** Durable-linearizability + detectability checker.

    Given a crash-history recorded by the driver and a sequential
    specification, the checker searches for a linearization that
    witnesses correctness in the paper's sense:

    - every operation that completed normally, and every crashed operation
      whose recovery returned a response, must be linearized exactly once,
      within its real-time interval, with exactly the observed response
      (durable linearizability + the success half of detectability);
    - every crashed operation whose recovery returned the [fail] verdict
      must {e not} be linearized at all (the failure half of
      detectability: "the operation was not linearized");
    - operations still pending when the history ends may be linearized or
      not, with any specification-consistent response.

    Two engines implement the same judgment:

    - {!check}, the batch reference: a Wing–Gong style interleaving
      exploration over one whole history, with memoization on
      (set of linearized operations, abstract state) keyed on the
      state's {!Nvm.Value.hc_of} digest.  Exact, exponential in the worst
      case, O(whole history) even on success.
    - {!Session}, the incremental engine: events are pushed one at a
      time and the reachable Wing–Gong frontier is maintained as state,
      so a verdict after k new events costs O(k · frontier), and
      {!Session.mark}/{!Session.rewind} let a DFS (the model checker,
      the shrinker) reuse the frontier of a shared history prefix across
      all sibling leaves instead of restarting from the empty history.

    Both engines agree on every verdict, including violation messages
    (property-tested in [test/test_lin_check.ml]); they may differ in
    which witness linearization they return where several exist.
    Histories are not bounded by a word size: both engines keep the
    linearized set in a {!Bitset}, one word up to
    {!Bitset.word_bits} operations and chunked beyond. *)

type verdict =
  | Ok_linearizable of Spec.op list
      (** a witness linearization (operations in linearization order) *)
  | Violation of string  (** human-readable reason *)

val check : Spec.t -> Event.t list -> verdict
(** The batch reference engine. *)

val is_ok : verdict -> bool

type engine = [ `Batch | `Incremental ]

val check_with : engine -> Spec.t -> Event.t list -> verdict
(** [check_with `Batch] is {!check}; [check_with `Incremental] runs a
    fresh {!Session} over the whole history.  Same verdicts either
    way. *)

(** The incremental checker engine. *)
module Session : sig
  type t

  val create : Spec.t -> t
  (** A session over the empty history (verdict: linearizable). *)

  val push_event : t -> Event.t -> unit
  (** Append one event to the history and update the frontier.  A
      malformed event (duplicate invocation, outcome for an unknown
      operation, second outcome) does not raise: it latches the
      violation, exactly as {!check} reports it, and further pushes
      become no-ops until rewound past the offending event. *)

  val push_history : t -> Event.t list -> unit
  (** [push_event] for each event, oldest first. *)

  val verdict : t -> verdict
  (** Verdict for the history pushed so far.  O(frontier); on success
      the witness is read off the surviving configuration's parent
      chain.  Once a prefix is violating, every extension is too. *)

  type mark

  val mark : t -> mark
  (** O(1) checkpoint of the current history position. *)

  val rewind : t -> mark -> unit
  (** Pop events back to [mark].  Marks are positions and strictly
      LIFO, mirroring the [Nvm.Mem] journal contract: rewinding to a
      mark invalidates every mark taken after it, and rewinding to such
      a stale mark raises [Invalid_argument]. *)

  val events : t -> int
  (** Events currently in the history prefix. *)

  val frontier_size : t -> int
  (** Configurations currently in the frontier (0 iff violating). *)
end

