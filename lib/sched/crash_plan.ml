open Dtc_util
open Nvm

type t = { should_crash : step:int -> bool; wipe : Fault_model.wipe }

let none =
  { should_crash = (fun ~step:_ -> false); wipe = Fault_model.keep_all }

(* 62-bit non-negative seed for a dedicated fault stream, drawn from the
   plan's own PRNG at construction time. *)
let draw_seed prng = Int64.to_int (Int64.shift_right_logical (Prng.next_int64 prng) 2)

let at_steps ks =
  List.iter
    (fun k ->
      if k < 0 then
        invalid_arg (Printf.sprintf "crash step must be at least 0 (got %d)" k))
    ks;
  (* plain sort, not sort_uniq: two crashes requested at the same step
     must both fire (on consecutive consultations) *)
  let remaining = ref (List.sort Int.compare ks) in
  let should_crash ~step =
    match !remaining with
    | k :: rest when step >= k ->
        remaining := rest;
        true
    | _ -> false
  in
  { should_crash; wipe = Fault_model.keep_all }

let check_prob prob =
  if not (prob >= 0. && prob <= 1.) then
    invalid_arg
      (Printf.sprintf "crash probability must be in [0, 1] (got %g)" prob)

let faulted ?(max_crashes = 3) ?(fault = Fault_model.Atomic) ~prob prng =
  check_prob prob;
  (* The wipe randomness must not come from [prng]: the schedule PRNG's
     consumption would then depend on the dirty-set size at each crash,
     coupling crash times to memory contents.  A dedicated seed makes
     the wipe a pure function of (crash index, dirty set).  [Atomic]
     draws no seed, so keep-everything plans consume only the crash
     coin flips. *)
  let wipe = Fault_model.wipe fault ~seed:(fun () -> draw_seed prng) in
  let fired = ref 0 in
  let should_crash ~step:_ =
    if !fired >= max_crashes then false
    else if Prng.float prng < prob then (
      incr fired;
      true)
    else false
  in
  { should_crash; wipe }

let fault_seed plan =
  match plan.wipe with Fault_model.Seeded (_, s) -> s | Fault_model.Keep _ -> 0
