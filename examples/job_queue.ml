(* A crash-safe job queue: producers, consumers and power failures.

   Run with:  dune exec examples/job_queue.exe

   Producers enqueue jobs and consumers dequeue them over the detectable
   durable FIFO queue while crashes strike.  Detectability gives the
   at-most-once/exactly-once story: after a crash a producer knows
   whether its job was linked (so it never double-submits) and a consumer
   knows whether it claimed a job (so no job is processed twice and no
   claimed job is lost).  We audit exactly that at the end, on top of the
   full history check. *)

open Nvm
open Runtime
open History
open Sched

let producers = 2
let consumers = 2
let jobs_per_producer = 4

let () =
  let n = producers + consumers in
  let machine = Machine.create () in
  let queue =
    Detectable.Dqueue.create machine ~n
      ~capacity:(producers * jobs_per_producer * 2)
  in
  let inst = Detectable.Dqueue.instance queue in
  let job pid k = Value.Int ((100 * (pid + 1)) + k) in
  let workloads =
    Array.init n (fun pid ->
        if pid < producers then
          List.init jobs_per_producer (fun k -> Spec.enq_op (job pid k))
        else
          (* consumers poll a little more than their share *)
          List.init (jobs_per_producer + 2) (fun _ -> Spec.deq_op))
  in
  let prng = Dtc_util.Prng.create 23 in
  let cfg =
    {
      Driver.schedule = Schedule.random (Dtc_util.Prng.split prng);
      crash_plan =
        Crash_plan.faulted ~max_crashes:3 ~prob:0.05 (Dtc_util.Prng.split prng);
      policy = Session.Retry;
      max_steps = 200_000;
    }
  in
  let res = Driver.run machine inst ~workloads cfg in

  (* audit: every consumed job was produced, and consumed at most once *)
  let produced =
    Array.to_list workloads
    |> List.concat_map
         (List.filter_map (fun (op : Spec.op) ->
              if op.Spec.name = "enq" then Some op.Spec.args.(0) else None))
  in
  let consumed =
    List.filter_map
      (function
        | Event.Ret { v = Value.Int x; _ } | Event.Rec_ret { v = Value.Int x; _ }
          ->
            Some x
        | _ -> None)
      res.Driver.history
  in
  let duplicates =
    let sorted = List.sort compare consumed in
    let rec go = function
      | a :: b :: _ when a = b -> true
      | _ :: rest -> go rest
      | [] -> false
    in
    go sorted
  in
  let alien =
    List.exists
      (fun x -> not (List.exists (Value.equal (Value.Int x)) produced))
      consumed
  in
  Printf.printf "jobs produced:    %d\n" (List.length produced);
  Printf.printf "jobs consumed:    %d\n" (List.length consumed);
  Printf.printf "crashes injected: %d\n" res.Driver.crashes;
  Printf.printf "duplicates:       %s\n" (if duplicates then "YES (bug!)" else "none ✓");
  Printf.printf "alien jobs:       %s\n" (if alien then "YES (bug!)" else "none ✓");
  match Driver.check inst res with
  | Lin_check.Ok_linearizable _ -> print_endline "history consistent ✓"
  | Lin_check.Violation m -> Printf.printf "history VIOLATION: %s\n" m
