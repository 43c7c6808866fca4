type kind = Shared | Private of int

type t = { id : int; name : string; kind : kind }

let make ~id ~name ~kind = { id; name; kind }

let is_shared l = l.kind = Shared
