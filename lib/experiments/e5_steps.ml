open Dtc_util
open History
open Sched

type subject = {
  label : string;
  mk : unit -> Runtime.Machine.t * Obj_inst.t;
  workloads : int -> Spec.op list array;  (* seed -> workloads *)
  bound : string * string;  (* human-readable op / recovery bounds *)
  n : int;
}

let subjects =
  let n = 5 in
  let subject label ?capacity ?values name bound =
    let obj = Objects.find name in
    {
      label;
      mk = Objects.mk ?capacity obj ~n;
      workloads =
        (fun seed ->
          Objects.workloads ?values obj (Dtc_util.Prng.create seed) ~procs:n
            ~ops_per_proc:5);
      bound;
      n;
    }
  in
  [
    subject "drw (Alg.1)" "drw"
      ("write <= N+15 incl. protocol (wait-free)", "recover <= N+9 (wait-free)");
    subject "dcas (Alg.2)" "dcas"
      ("cas: O(1) (wait-free)", "recover: O(1) (wait-free)");
    subject "dmax (Alg.3)" "dmax" ~values:6
      ("write-max: O(1); read: O(N) solo (obstr.-free)", "re-invoke");
    subject "dfaa (capsule)" "dfaa" ~values:3
      ("faa: lock-free (O(1) solo)", "recover: O(1)");
    subject "dqueue" "dqueue" ~capacity:128 ~values:4
      ("enq/deq: lock-free (O(1) solo)", "recover: O(1)");
  ]

let table () =
  let t =
    Table.create
      ~title:"E5 (Lemmas 1-2): max own-steps per operation over adversarial schedules (N = 5, 20 seeds)"
      [ "object"; "operation"; "max steps observed"; "analytic bound" ]
  in
  List.iter
    (fun s ->
      let acc : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let racc : (string, int) Hashtbl.t = Hashtbl.create 8 in
      for seed = 1 to 20 do
        let res =
          Common.run_steps ~mk:s.mk ~workloads:(s.workloads seed) ~seed
        in
        List.iter
          (fun (name, steps) ->
            match Hashtbl.find_opt acc name with
            | Some m when m >= steps -> ()
            | _ -> Hashtbl.replace acc name steps)
          res.Driver.op_steps;
        List.iter
          (fun (name, steps) ->
            match Hashtbl.find_opt racc name with
            | Some m when m >= steps -> ()
            | _ -> Hashtbl.replace racc name steps)
          res.Driver.rec_steps
      done;
      let op_bound, rec_bound = s.bound in
      Hashtbl.iter
        (fun name steps ->
          if name <> "idle" then
            Table.add_row t [ s.label; name; string_of_int steps; op_bound ])
        acc;
      Hashtbl.iter
        (fun name steps ->
          if name <> "idle" then
            Table.add_row t
              [ s.label; name ^ ".recover"; string_of_int steps; rec_bound ])
        racc)
    subjects;
  t
