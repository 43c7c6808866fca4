open Dtc_util
open Nvm
open History

let gen prng ~procs ~ops_per_proc pick_op =
  Array.init procs (fun _ -> List.init ops_per_proc (fun _ -> pick_op prng))

let register prng ~procs ~ops_per_proc ~values =
  gen prng ~procs ~ops_per_proc (fun g ->
      if Prng.bool g then Spec.read_op
      else Spec.write_op (Value.Int (Prng.int g values)))

let cas prng ~procs ~ops_per_proc ~values =
  gen prng ~procs ~ops_per_proc (fun g ->
      if Prng.int g 4 = 0 then Spec.read_op
      else
        Spec.cas_op
          (Value.Int (Prng.int g values))
          (Value.Int (Prng.int g values)))

let counter prng ~procs ~ops_per_proc =
  gen prng ~procs ~ops_per_proc (fun g ->
      if Prng.int g 3 = 0 then Spec.read_op else Spec.inc_op)

let faa prng ~procs ~ops_per_proc ~max_delta =
  gen prng ~procs ~ops_per_proc (fun g ->
      if Prng.int g 3 = 0 then Spec.read_op
      else Spec.faa_op (1 + Prng.int g max_delta))

let max_register prng ~procs ~ops_per_proc ~values =
  gen prng ~procs ~ops_per_proc (fun g ->
      if Prng.int g 3 = 0 then Spec.read_op
      else Spec.write_max_op (Prng.int g values))

let tas prng ~procs ~ops_per_proc =
  gen prng ~procs ~ops_per_proc (fun g ->
      match Prng.int g 4 with
      | 0 -> Spec.read_op
      | 1 -> Spec.reset_op
      | _ -> Spec.tas_op)

let swap prng ~procs ~ops_per_proc ~values =
  gen prng ~procs ~ops_per_proc (fun g ->
      if Prng.int g 4 = 0 then Spec.read_op
      else Spec.swap_op (Value.Int (Prng.int g values)))

let queue prng ~procs ~ops_per_proc ~values =
  gen prng ~procs ~ops_per_proc (fun g ->
      if Prng.int g 3 = 0 then Spec.deq_op
      else Spec.enq_op (Value.Int (Prng.int g values)))
