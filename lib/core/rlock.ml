open Nvm
open Runtime

type t = { owner : Loc.t; persist : bool }

let create ?(persist = false) machine =
  { owner = Machine.alloc_shared machine "lock.owner" Value.Bot; persist }

let rec acquire t ~pid =
  let won = Fiber.cas t.owner Value.Bot (Value.Int pid) in
  if t.persist then Fiber.persist t.owner;
  if won then ()
  else begin
    Fiber.yield ();
    acquire t ~pid
  end

let release t ~pid =
  (* the owner writes ⊥; a single atomic store, so ownership is never
     ambiguous across a crash *)
  ignore pid;
  Fiber.write t.owner Value.Bot;
  if t.persist then Fiber.persist t.owner

let holds_f t ~pid = Value.equal (Fiber.read t.owner) (Value.Int pid)

let owner_loc t = t.owner
