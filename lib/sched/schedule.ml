open Dtc_util

type t = { choose : runnable:int list -> step:int -> int }

let round_robin () =
  let last = ref (-1) in
  let choose ~runnable ~step:_ =
    match List.find_opt (fun pid -> pid > !last) runnable with
    | Some pid ->
        last := pid;
        pid
    | None ->
        let pid = List.hd runnable in
        last := pid;
        pid
  in
  { choose }

let random prng =
  let choose ~runnable ~step:_ = Prng.pick prng runnable in
  { choose }

let scripted pids =
  let script = ref pids in
  let choose ~runnable ~step:_ =
    (* drop script entries until one is runnable *)
    let rec next () =
      match !script with
      | [] -> List.hd runnable
      | pid :: rest ->
          script := rest;
          if List.mem pid runnable then pid else next ()
    in
    next ()
  in
  { choose }
