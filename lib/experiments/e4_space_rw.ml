open Dtc_util
open Nvm
open History
open Sched

let run_writes ~mk ~n ~ops =
  let machine, inst = mk () in
  let workloads =
    Array.init n (fun p -> List.init ops (fun _ -> Spec.write_op (Common.i (p + 1))))
  in
  let cfg = { Driver.default_config with max_steps = 20_000_000 } in
  ignore (Driver.run machine inst ~workloads cfg);
  machine

let drw_bits ~n ~ops =
  let machine = run_writes ~mk:(Objects.(mk (find "drw")) ~n) ~n ~ops in
  Mem.max_shared_bits (Runtime.Machine.mem machine)

let urw_bits ~n ~ops =
  let machine = run_writes ~mk:(Objects.(mk (find "urw")) ~n) ~n ~ops in
  Mem.max_shared_bits (Runtime.Machine.mem machine)

let table () =
  let n = 3 in
  let t =
    Table.create
      ~title:"E4: read/write footprint vs operations (N = 3, bits)"
      [ "writes/proc"; "drw (Alg.1, bounded)"; "urw (unbounded tags)" ]
  in
  List.iter
    (fun ops ->
      Table.add_row t
        [
          string_of_int ops;
          string_of_int (drw_bits ~n ~ops);
          string_of_int (urw_bits ~n ~ops);
        ])
    [ 1; 10; 100; 1000; 10_000; 100_000 ];
  t
