(* Exactly-once money movement over a crash-prone system.

   Run with:  dune exec examples/bank_transfer.exe

   A shared vault balance is a detectable fetch-and-add object (the
   capsule transform over Algorithm 2's CAS core).  Tellers deposit fixed
   amounts while crashes strike.  Detectability is what makes the books
   balance: after a crash, a teller's recovery either returns the
   deposit's response (it happened — do NOT replay it) or the fail
   verdict (it provably did not — replay it).  With the Retry policy
   every deposit lands exactly once, so the final balance equals the sum
   of all deposits, which we verify, along with the full history. *)

open Nvm
open Runtime
open History
open Sched

let tellers = 3
let deposits_per_teller = 5
let amount pid k = ((pid + 1) * 10) + k (* distinct, easy to audit *)

let () =
  let machine = Machine.create () in
  let vault = Detectable.Transform.faa machine ~n:tellers ~init:0 in
  let inst = Detectable.Transform.instance vault in
  let workloads =
    Array.init tellers (fun pid ->
        List.init deposits_per_teller (fun k -> Spec.faa_op (amount pid k)))
  in
  let expected_total =
    Array.to_list workloads
    |> List.concat_map (fun ops ->
           List.map
             (fun (op : Spec.op) -> Value.to_int op.Spec.args.(0))
             ops)
    |> List.fold_left ( + ) 0
  in
  let prng = Dtc_util.Prng.create 11 in
  let cfg =
    {
      Driver.schedule = Schedule.random (Dtc_util.Prng.split prng);
      crash_plan =
        Crash_plan.faulted ~max_crashes:3 ~prob:0.06 (Dtc_util.Prng.split prng);
      policy = Session.Retry;
      max_steps = 200_000;
    }
  in
  let res = Driver.run machine inst ~workloads cfg in
  let c =
    match Detectable.Transform.shared_locs vault with
    | [ c ] -> c
    | _ -> assert false
  in
  let final = Value.to_int (Value.nth (Machine.peek machine c) 0) in
  Printf.printf "tellers:          %d\n" tellers;
  Printf.printf "deposits:         %d (total %d)\n"
    (tellers * deposits_per_teller)
    expected_total;
  Printf.printf "crashes injected: %d\n" res.Driver.crashes;
  Printf.printf "fail verdicts:    %d (each retried exactly once)\n"
    (List.length
       (List.filter
          (function Event.Rec_fail _ -> true | _ -> false)
          res.Driver.history));
  Printf.printf "final balance:    %d\n" final;
  if final = expected_total then print_endline "books balance ✓"
  else Printf.printf "BOOKS DO NOT BALANCE (expected %d)\n" expected_total;
  match Driver.check inst res with
  | Lin_check.Ok_linearizable _ -> print_endline "history consistent ✓"
  | Lin_check.Violation m -> Printf.printf "history VIOLATION: %s\n" m
