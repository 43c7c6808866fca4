open Dtc_util
open Nvm
open Runtime
open History
open Sched

type row = {
  label : string;
  mk : unit -> Machine.t * Obj_inst.t * (Machine.t -> int);
      (* instance plus a shared-bits probe *)
  workloads : int -> Spec.op list array;
  space_class : string;
  progress : string;
}

let n = 4
let ops = 8

let reg_wl seed =
  Workload.register (Dtc_util.Prng.create seed) ~procs:n ~ops_per_proc:ops
    ~values:3

let cas_wl seed =
  Workload.cas (Dtc_util.Prng.create seed) ~procs:n ~ops_per_proc:ops ~values:3

let counter_wl seed =
  Workload.counter (Dtc_util.Prng.create seed) ~procs:n ~ops_per_proc:ops

let all_shared machine = Mem.max_shared_bits (Machine.mem machine)

let with_shared_bits name () =
  let m, inst = Objects.mk (Objects.find name) ~n () in
  (m, inst, all_shared)

let rows () =
  [
    {
      label = "drw (Alg.1)";
      mk = with_shared_bits "drw";
      workloads = reg_wl;
      space_class = "bounded (O(N^2) bits)";
      progress = "wait-free, O(N) write";
    };
    {
      label = "urw (unbounded tags)";
      mk = with_shared_bits "urw";
      workloads = reg_wl;
      space_class = "unbounded (grows with ops)";
      progress = "wait-free, O(1)";
    };
    {
      label = "dcas (Alg.2)";
      mk = with_shared_bits "dcas";
      workloads = cas_wl;
      space_class = "bounded (Theta(N) bits)";
      progress = "wait-free, O(1)";
    };
    {
      label = "ucas (unbounded tags)";
      mk = with_shared_bits "ucas";
      workloads = cas_wl;
      space_class = "unbounded (grows with ops)";
      progress = "lock-free";
    };
    {
      label = "dcounter (capsule)";
      mk = with_shared_bits "dcounter";
      workloads = counter_wl;
      space_class = "bounded (Theta(N) bits)";
      progress = "lock-free";
    };
    {
      label = "dprotected (lock)";
      mk = with_shared_bits "dprotected";
      workloads = counter_wl;
      space_class = "bounded (O(log N) bits)";
      progress = "blocking (deadlock-free)";
    };
    {
      label = "ulog counter (universal)";
      mk =
        (fun () ->
          let m = Machine.create () in
          ( m,
            Detectable.Ulog.instance
              (Detectable.Ulog.create m ~n ~capacity:(n * ops * 2)
                 ~spec:(Spec.counter 0)),
            all_shared ));
      workloads = counter_wl;
      space_class = "unbounded (log grows)";
      progress = "lock-free, O(history) replay";
    };
  ]

let table () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E10 (open problem): the empirical time/space landscape (N = %d, %d ops/proc, 10 seeds)"
           n ops)
      [
        "implementation";
        "space class";
        "shared bits (measured)";
        "max op steps";
        "max recovery steps";
        "progress";
      ]
  in
  List.iter
    (fun r ->
      let bits = ref 0 in
      let op_steps = ref 0 in
      let rec_steps = ref 0 in
      for seed = 1 to 10 do
        let machine, inst, probe = r.mk () in
        let cfg =
          Driver.seeded_config ~max_steps:500_000 ~max_crashes:2
            ~crash_prob:0.03
            (Dtc_util.Prng.create (100 * seed))
        in
        let res = Driver.run machine inst ~workloads:(r.workloads seed) cfg in
        bits := max !bits (probe machine);
        List.iter
          (fun (name, s) -> if name <> "idle" then op_steps := max !op_steps s)
          res.Driver.op_steps;
        List.iter
          (fun (name, s) -> if name <> "idle" then rec_steps := max !rec_steps s)
          res.Driver.rec_steps
      done;
      Table.add_row t
        [
          r.label;
          r.space_class;
          string_of_int !bits;
          string_of_int !op_steps;
          string_of_int !rec_steps;
          r.progress;
        ])
    (rows ());
  t
