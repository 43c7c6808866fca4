open Nvm
open Runtime
open History
open Sched

type family = Register | Cas | Max_register | Counter | Faa | Swap | Tas | Queue

type t = {
  name : string;
  family : family;
  build : persist:bool -> capacity:int -> Machine.t -> n:int -> Obj_inst.t;
}

let i n = Value.Int n

let all =
  let entry name family build = { name; family; build } in
  let transform
      (f : ?persist:bool -> Machine.t -> n:int -> Detectable.Transform.t)
      ~persist ~capacity:_ m ~n =
    Detectable.Transform.instance (f ~persist m ~n)
  in
  [
    entry "drw" Register (fun ~persist ~capacity:_ m ~n ->
        Detectable.Drw.(instance (create ~persist m ~n ~init:(i 0))));
    entry "dcas" Cas (fun ~persist ~capacity:_ m ~n ->
        Detectable.Dcas.(instance (create ~persist m ~n ~init:(i 0))));
    entry "dmax" Max_register (fun ~persist ~capacity:_ m ~n ->
        Detectable.Dmax.(instance (create ~persist m ~n ~init:0)));
    entry "dcounter" Counter
      (transform (Detectable.Transform.counter ~init:0));
    entry "dfaa" Faa (transform (Detectable.Transform.faa ~init:0));
    entry "dswap" Swap (transform (Detectable.Transform.swap ~init:(i 0)));
    entry "dtas" Tas (transform Detectable.Transform.tas);
    entry "dbounded" Counter
      (transform (Detectable.Transform.bounded_counter ~lo:0 ~hi:3 ~init:0));
    entry "dqueue" Queue (fun ~persist ~capacity m ~n ->
        Detectable.Dqueue.(instance (create ~persist m ~n ~capacity)));
    entry "dprotected" Counter (fun ~persist ~capacity:_ m ~n ->
        Detectable.Dprotected.(instance (create ~persist m ~n ~init:0)));
    entry "urw" Register (fun ~persist ~capacity:_ m ~n ->
        Baselines.Urw.(instance (create ~persist m ~n ~init:(i 0))));
    entry "ucas" Cas (fun ~persist ~capacity:_ m ~n ->
        Baselines.Ucas.(instance (create ~persist m ~n ~init:(i 0))));
    entry "broken-rw-refail" Register (fun ~persist ~capacity:_ m ~n ->
        Baselines.Broken.rw_no_aux_refail ~persist m ~n ~init:(i 0));
    entry "broken-rw-reexec" Register (fun ~persist ~capacity:_ m ~n ->
        Baselines.Broken.rw_no_aux_reexec ~persist m ~n ~init:(i 0));
    entry "broken-drw-no-toggle" Register (fun ~persist ~capacity:_ m ~n ->
        Baselines.Broken.drw_no_toggle ~persist m ~n ~init:(i 0));
    entry "broken-dcas-no-vec" Cas (fun ~persist ~capacity:_ m ~n ->
        Baselines.Broken.dcas_no_vec ~persist m ~n ~init:(i 0));
  ]

let name t = t.name

let find name =
  match List.find_opt (fun t -> t.name = name) all with
  | Some t -> t
  | None ->
      invalid_arg
        (Printf.sprintf "Objects.find: unknown object %S (known: %s)" name
           (String.concat ", " (List.map (fun t -> t.name) all)))

let mk ?(model = Machine.Private_cache) ?(persist = false) ?(capacity = 256) t
    ~n =
  if n < 1 then
    invalid_arg
      (Printf.sprintf "%s: the process count must be at least 1 (got %d)"
         t.name n);
  fun () ->
    let m = Machine.create ~model () in
    (m, t.build ~persist ~capacity m ~n)

let workloads ?values t prng ~procs ~ops_per_proc =
  if ops_per_proc < 0 then
    invalid_arg
      (Printf.sprintf
         "%s: the operation count per process must be at least 0 (got %d)"
         t.name ops_per_proc);
  let values default = Option.value values ~default in
  match t.family with
  | Register -> Workload.register prng ~procs ~ops_per_proc ~values:(values 3)
  | Cas -> Workload.cas prng ~procs ~ops_per_proc ~values:(values 3)
  | Max_register ->
      Workload.max_register prng ~procs ~ops_per_proc ~values:(values 8)
  | Counter -> Workload.counter prng ~procs ~ops_per_proc
  | Faa -> Workload.faa prng ~procs ~ops_per_proc ~max_delta:(values 4)
  | Swap -> Workload.swap prng ~procs ~ops_per_proc ~values:(values 3)
  | Tas -> Workload.tas prng ~procs ~ops_per_proc
  | Queue -> Workload.queue prng ~procs ~ops_per_proc ~values:(values 5)

let max_register_attack =
  {
    Perturb.Witnesses.obj_name = "max_register";
    spec = Spec.max_register 0;
    witness = Perturb.Witnesses.register.witness;
    attack =
      [|
        [ Spec.write_max_op 1 ];
        [ Spec.read_op; Spec.write_max_op 2; Spec.read_op ];
      |];
  }

let attack t =
  match t.family with
  | Register -> Perturb.Witnesses.register
  | Cas -> Perturb.Witnesses.cas
  | Max_register -> max_register_attack
  | Counter -> Perturb.Witnesses.counter
  | Faa -> Perturb.Witnesses.faa
  | Swap -> Perturb.Witnesses.swap
  | Tas -> Perturb.Witnesses.tas
  | Queue -> Perturb.Witnesses.queue

let machine_for = function
  | Fault_model.Atomic -> (Machine.Private_cache, false)
  | Fault_model.(Drop _ | Torn _ | Reorder) -> (Machine.Shared_cache, true)
