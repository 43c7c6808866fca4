open Dtc_util
open Nvm
open Runtime
open History
open Sched

let i n = Value.Int n
let mk ?capacity name = Objects.mk ?capacity (Objects.find name)

let solo_steps ~mk ~ops_of =
  let machine, inst = mk () in
  let ops = ops_of () in
  let cfg = { Driver.default_config with max_steps = 10_000_000 } in
  let res = Driver.run machine inst ~workloads:[| ops |] cfg in
  if res.Driver.incomplete then failwith "solo run incomplete";
  float_of_int res.Driver.steps /. float_of_int (List.length ops)

let steps_table () =
  let t =
    Table.create
      ~title:
        "T1a: simulated primitive steps per operation (solo, 100 ops, incl. \
         announce/clear protocol)"
      [ "implementation"; "workload"; "steps/op" ]
  in
  let k = 100 in
  let row label mk ops_of =
    Table.add_row t
      [ label; "100 ops"; Printf.sprintf "%.1f" (solo_steps ~mk ~ops_of) ]
  in
  let writes () = List.init k (fun j -> Spec.write_op (i (j mod 4))) in
  let cases () =
    List.init k (fun j ->
        if j mod 2 = 0 then Spec.cas_op (i 0) (i 1) else Spec.cas_op (i 1) (i 0))
  in
  let plain build () =
    let m = Machine.create () in
    (m, build m)
  in
  let queue_ops () =
    List.init k (fun j -> if j mod 2 = 0 then Spec.enq_op (i j) else Spec.deq_op)
  in
  let incs () = List.init k (fun _ -> Spec.inc_op) in
  row "drw (Alg.1, N=3)" (mk "drw" ~n:3) writes;
  row "urw (unbounded tags, N=3)" (mk "urw" ~n:3) writes;
  row "plain register (not recoverable)" (plain (Baselines.Plain.register ~init:(i 0)))
    writes;
  row "dcas (Alg.2, N=3)" (mk "dcas" ~n:3) cases;
  row "ucas (unbounded tags, N=3)" (mk "ucas" ~n:3) cases;
  row "plain cas (not recoverable)" (plain (Baselines.Plain.cas_cell ~init:(i 0))) cases;
  row "dmax (Alg.3, N=3)" (mk "dmax" ~n:3) (fun () ->
      List.init k (fun j -> if j mod 2 = 0 then Spec.write_max_op j else Spec.read_op));
  row "dcounter (capsule, N=3)" (mk "dcounter" ~n:3) incs;
  row "plain counter (not recoverable)" (plain (Baselines.Plain.counter ~init:0)) incs;
  row "dqueue (N=3)" (mk ~capacity:128 "dqueue" ~n:3) queue_ops;
  row "plain queue (not recoverable)" (plain (Baselines.Plain.queue ~capacity:128)) queue_ops;
  row "dprotected (lock-based, N=3)" (mk "dprotected" ~n:3) incs;
  row "ulog register (universal, N=3)"
    (plain (fun m ->
         Detectable.Ulog.instance
           (Detectable.Ulog.create m ~n:3 ~capacity:(k + 4) ~spec:(Spec.register (i 0)))))
    writes;
  t

(* The N-dependence of Algorithm 1's write (its toggle-raising loop). *)
let drw_scaling_table () =
  let t =
    Table.create
      ~title:"T1a': Algorithm 1 write cost grows linearly in N (the toggle loop)"
      [ "N"; "steps per write (solo)" ]
  in
  List.iter
    (fun n ->
      let steps =
        solo_steps ~mk:(mk "drw" ~n)
          ~ops_of:(fun () -> List.init 50 (fun j -> Spec.write_op (i (j mod 3))))
      in
      Table.add_row t [ string_of_int n; Printf.sprintf "%.1f" steps ])
    [ 2; 4; 8; 16; 32 ];
  t
