open Nvm

exception Crashed

type _ Effect.t += Step : Prim.request -> Value.t Effect.t

(* Ghost-feed fast path: while a feed is installed, [step] consumes
   pre-recorded responses directly instead of performing the effect —
   no suspension, no continuation traffic.  A
   ghost replay (Session.rebuild) re-executes a whole logged prefix as
   one straight-line run with a single final suspension, instead of two
   stack switches per logged step.  The feed returns [None] when its
   log is exhausted; the step then suspends normally. *)
let feed : (Prim.request -> Value.t option) option ref = ref None

let step req =
  match !feed with
  | Some f -> (
      match f req with Some v -> v | None -> Effect.perform (Step req))
  | None -> Effect.perform (Step req)

let with_ghost_feed f body =
  let saved = !feed in
  feed := Some f;
  Fun.protect ~finally:(fun () -> feed := saved) body

let read l = step (Prim.Read l)
let write l v = ignore (step (Prim.Write (l, v)))
let cas l e d = Value.to_bool (step (Prim.Cas (l, e, d)))
let faa l d = Value.to_int (step (Prim.Faa (l, d)))
let persist l = ignore (step (Prim.Persist l))
let yield () = ignore (step Prim.Yield)

type outcome =
  | O_done of Value.t
  | O_pending of Prim.request * (Value.t, outcome) Effect.Deep.continuation

type status = Pending of Prim.request | Done of Value.t | Killed

type state =
  | S_pending of Prim.request * (Value.t, outcome) Effect.Deep.continuation
  | S_done of Value.t
  | S_killed

type t = { mutable state : state }

let handler : (Value.t, outcome) Effect.Deep.handler =
  {
    retc = (fun v -> O_done v);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Step req ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                O_pending (req, (k : (Value.t, outcome) Effect.Deep.continuation)))
        | _ -> None);
  }

let of_outcome = function
  | O_done v -> { state = S_done v }
  | O_pending (req, k) -> { state = S_pending (req, k) }

let start f = of_outcome (Effect.Deep.match_with f () handler)

let status t =
  match t.state with
  | S_pending (req, _) -> Pending req
  | S_done v -> Done v
  | S_killed -> Killed

(* Allocation-free status probes: [status] boxes a [Pending]/[Done]
   per call, which the scheduler would otherwise pay on every
   runnable-set scan of every step. *)

let is_pending t = match t.state with S_pending _ -> true | _ -> false
let is_done t = match t.state with S_done _ -> true | _ -> false

let pending_request t =
  match t.state with
  | S_pending (req, _) -> req
  | S_done _ | S_killed ->
      invalid_arg "Fiber.pending_request: fiber is not pending"

let resume t result =
  match t.state with
  | S_pending (_, k) -> (
      match Effect.Deep.continue k result with
      | O_done v -> t.state <- S_done v
      | O_pending (req, k') -> t.state <- S_pending (req, k'))
  | S_done _ | S_killed -> invalid_arg "Fiber.resume: fiber is not pending"

let kill t =
  match t.state with
  | S_done _ | S_killed -> t.state <- S_killed
  | S_pending (_, k) -> (
      t.state <- S_killed;
      (* Unwind the continuation so its resources are released.  A program
         that catches [Crashed] and keeps running is erroneous. *)
      match Effect.Deep.discontinue k Crashed with
      | _ -> failwith "Fiber.kill: program caught Crashed and kept running"
      | exception Crashed -> ())
