open Dtc_util
open History
open Sched

(* Drive the processes of subset [s] (bitmask) through one successful CAS
   each, sequentially, and return the final NVM snapshot. *)
let drive_subset ~n s =
  let machine, inst = Objects.(mk (find "dcas")) ~n () in
  (* values 0, 1, 2, …: process k (k-th member of S) swaps the current
     value v for v+1, so every CAS succeeds; the domain has size ≥ N as
     Theorem 1 assumes *)
  let members = List.filter (fun p -> s land (1 lsl p) <> 0) (List.init n Fun.id) in
  let workloads = Array.make n [] in
  List.iteri
    (fun k p -> workloads.(p) <- [ Spec.cas_op (Common.i k) (Common.i (k + 1)) ])
    members;
  let session = Session.create machine inst ~workloads in
  (* run members one at a time, in order: each to completion *)
  List.iter
    (fun p ->
      while List.mem p (Session.runnable session) do
        Session.step session p
      done)
    members;
  if not (Session.finished session) then failwith "E1: session did not finish";
  Runtime.Machine.nvm_snapshot machine

let subset_configs ~n =
  let configs = Modelcheck.Config_set.create () in
  for s = 0 to (1 lsl n) - 1 do
    Modelcheck.Config_set.add configs (drive_subset ~n s)
  done;
  Modelcheck.Config_set.cardinal configs

let exhaustive_configs ~n =
  let workloads =
    Array.init n (fun p -> [ Spec.cas_op (Common.i p) (Common.i (p + 1)) ])
  in
  let out =
    Modelcheck.Explore.explore
      ~mk:(Objects.(mk (find "dcas")) ~n)
      ~workloads
      {
        Modelcheck.Explore.default_config with
        switch_budget = 2;
        crash_budget = 1;
      }
  in
  out.Modelcheck.Explore.distinct_shared_configs

let table () =
  let t =
    Table.create ~title:"E1 (Fig.1/Thm.1): reachable non-memory-equivalent configurations of Algorithm 2"
      [ "N"; "subset-driven configs"; "paper bound 2^(N-1)"; "exhaustive (small N)" ]
  in
  List.iter
    (fun n ->
      let subset = subset_configs ~n in
      let bound = 1 lsl (n - 1) in
      let exhaustive = if n <= 3 then string_of_int (exhaustive_configs ~n) else "-" in
      Table.add_row t
        [ string_of_int n; string_of_int subset; string_of_int bound; exhaustive ])
    [ 1; 2; 3; 4; 5; 6; 8; 10 ];
  t
