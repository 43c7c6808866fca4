(* A composite ledger: three detectable objects behind one interface.

   Run with:  dune exec examples/ledger.exe

   One machine hosts an account balance (detectable CAS), an audit log
   (detectable durable queue) and a statistics counter (the lock-based
   detectable counter) — composed into a single detectable object whose
   operations carry component prefixes.  This is Section 6's composability
   point made concrete: after a crash, recovery resolves exactly the one
   component operation that was in flight, and the whole composite is
   checked against the product of the three specifications. *)

open Nvm
open Runtime
open History
open Sched

let i n = Value.Int n
let lift = Detectable.Compose.lift

let () =
  let machine = Machine.create () in
  let acct = Detectable.Dcas.instance (Detectable.Dcas.create machine ~n:3 ~init:(i 100)) in
  let log =
    Detectable.Dqueue.instance (Detectable.Dqueue.create machine ~n:3 ~capacity:64)
  in
  let stats =
    Detectable.Dprotected.instance (Detectable.Dprotected.create machine ~n:3 ~init:0)
  in
  let ledger =
    Detectable.Compose.combine [ ("acct", acct); ("log", log); ("stats", stats) ]
  in
  (* each teller: adjust the balance, log the adjustment, bump the stats *)
  let teller pid delta =
    [
      lift "acct" (Spec.cas_op (i 100) (i (100 + delta)));
      lift "log" (Spec.enq_op (i ((1000 * pid) + delta)));
      lift "stats" Spec.inc_op;
      lift "acct" Spec.read_op;
    ]
  in
  let workloads = [| teller 0 7; teller 1 11; teller 2 13 |] in
  let prng = Dtc_util.Prng.create 4242 in
  let cfg =
    {
      Driver.schedule = Schedule.random (Dtc_util.Prng.split prng);
      crash_plan =
        Crash_plan.faulted ~max_crashes:3 ~prob:0.05 (Dtc_util.Prng.split prng);
      policy = Session.Retry;
      max_steps = 200_000;
    }
  in
  let res = Driver.run machine ledger ~workloads cfg in
  Printf.printf "composite: %s\n\n" ledger.Obj_inst.descr;
  Printf.printf "steps: %d   crashes: %d   recovery fail-verdicts: %d\n"
    res.Driver.steps res.Driver.crashes
    (List.length
       (List.filter
          (function Event.Rec_fail _ -> true | _ -> false)
          res.Driver.history));
  (* exactly one balance CAS can win the race from 100 *)
  let winners =
    List.filter
      (function
        | Event.Ret { v = Value.Bool true; _ }
        | Event.Rec_ret { v = Value.Bool true; _ } ->
            true
        | _ -> false)
      res.Driver.history
  in
  Printf.printf "balance CASes that won the race from 100: %d (expected 1)\n"
    (List.length winners);
  match Driver.check ledger res with
  | Lin_check.Ok_linearizable _ ->
      print_endline "composite history consistent against the product spec ✓"
  | Lin_check.Violation m -> Printf.printf "VIOLATION: %s\n" m
