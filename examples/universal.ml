(* Any object, made recoverable: the universal construction.

   Run with:  dune exec examples/universal.exe

   One module gives crash-recovery to ANY sequential specification: the
   object's state is an append-only NVM log and operations linearize at
   the CAS that claims their slot.  In detectable mode each invocation is
   tagged through the announcement (auxiliary state, as Theorem 2 says it
   must be), so recovery answers exactly.  Here we make the plain OCaml
   "max register" spec — and then a FIFO queue — recoverable in three
   lines each, and torture them with crashes.

   The price appears in the last line: the log never shrinks.  Compare
   with Algorithms 1 and 2, whose whole point is bounded space. *)

open Nvm
open Runtime
open History
open Sched

let i n = Value.Int n

let run_and_report ~name ~spec ~workloads =
  let machine = Machine.create () in
  let obj = Detectable.Ulog.create machine ~n:3 ~capacity:128 ~spec in
  let inst = Detectable.Ulog.instance obj in
  let prng = Dtc_util.Prng.create 99 in
  let cfg =
    {
      Driver.schedule = Schedule.random (Dtc_util.Prng.split prng);
      crash_plan =
        Crash_plan.faulted ~max_crashes:3 ~prob:0.05 (Dtc_util.Prng.split prng);
      policy = Session.Retry;
      max_steps = 500_000;
    }
  in
  let res = Driver.run machine inst ~workloads cfg in
  let verdict =
    match Driver.check inst res with
    | Lin_check.Ok_linearizable _ -> "consistent ✓"
    | Lin_check.Violation m -> "VIOLATION: " ^ m
  in
  Format.printf "%-12s %a — %s; log length %d@." name Hist.pp_stats
    (Hist.stats res.Driver.history)
    verdict
    (Detectable.Ulog.log_length machine obj)

let () =
  run_and_report ~name:"max-register" ~spec:(Spec.max_register 0)
    ~workloads:
      [|
        [ Spec.write_max_op 5; Spec.read_op ];
        [ Spec.write_max_op 9; Spec.read_op ];
        [ Spec.read_op; Spec.write_max_op 3; Spec.read_op ];
      |];
  run_and_report ~name:"queue" ~spec:(Spec.fifo_queue ())
    ~workloads:
      [|
        [ Spec.enq_op (i 1); Spec.enq_op (i 2); Spec.deq_op ];
        [ Spec.deq_op; Spec.enq_op (i 3) ];
        [ Spec.deq_op; Spec.deq_op ];
      |];
  print_endline
    "\nany spec works — but the log grows forever, which is why the paper's\n\
     bounded-space algorithms exist."
