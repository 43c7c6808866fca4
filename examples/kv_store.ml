(* A crash-safe key-value store from detectable read/write registers.

   Run with:  dune exec examples/kv_store.exe

   One Algorithm 1 register per key.  Client processes update and read
   keys while the harness injects system-wide crashes; after every crash
   the store's recovery dispatcher resolves each in-flight operation to
   "took effect, here is the response" or "provably did not happen", and
   the per-key histories are verified against the register specification.

   This is the motivating scenario for detectability: the application
   layer (here, the workload runner) can retry exactly the operations
   that provably did not happen — no lost updates, no double updates. *)

open Nvm
open Runtime
open History
open Sched

let keys = [ "alpha"; "beta"; "gamma" ]
let n_procs = 3
let rounds = 4

let () =
  let prng = Dtc_util.Prng.create 7 in
  let total_crashes = ref 0 in
  let total_retries = ref 0 in
  (* the store: one detectable register per key, each in its own machine
     so its history can be checked independently *)
  List.iter
    (fun key ->
      let machine = Machine.create () in
      let reg = Detectable.Drw.create machine ~n:n_procs ~init:(Value.Int 0) in
      let inst = Detectable.Drw.instance reg in
      let workloads =
        Array.init n_procs (fun pid ->
            List.concat
              (List.init rounds (fun round ->
                   [
                     Spec.write_op (Value.Int ((100 * pid) + round));
                     Spec.read_op;
                   ])))
      in
      let cfg =
        {
          Driver.schedule = Schedule.random (Dtc_util.Prng.split prng);
          crash_plan =
            Crash_plan.faulted ~max_crashes:2 ~prob:0.04 (Dtc_util.Prng.split prng);
          policy = Session.Retry;
          max_steps = 100_000;
        }
      in
      let res = Driver.run machine inst ~workloads cfg in
      total_crashes := !total_crashes + res.Driver.crashes;
      let retries =
        List.length
          (List.filter
             (function Event.Rec_fail _ -> true | _ -> false)
             res.Driver.history)
      in
      total_retries := !total_retries + retries;
      let verdict =
        match Driver.check inst res with
        | Lin_check.Ok_linearizable _ -> "consistent ✓"
        | Lin_check.Violation m -> "VIOLATION: " ^ m
      in
      Printf.printf
        "key %-6s  %3d ops, %d crashes, %d fail-verdicts (retried), %s\n" key
        (List.length
           (List.filter
              (function Event.Inv _ -> true | _ -> false)
              res.Driver.history))
        res.Driver.crashes retries verdict)
    keys;
  Printf.printf
    "\nstore survived %d crashes; %d provably-unexecuted operations were retried\n"
    !total_crashes !total_retries
