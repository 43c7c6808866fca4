open Nvm

type request =
  | Read of Loc.t
  | Write of Loc.t * Value.t
  | Cas of Loc.t * Value.t * Value.t
  | Faa of Loc.t * int
  | Persist of Loc.t
  | Fence
  | Yield

let touches = function
  | Read l | Write (l, _) | Cas (l, _, _) | Faa (l, _) | Persist l -> Some l
  | Fence | Yield -> None
