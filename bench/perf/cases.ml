(* The benchmark's five workloads.  Every input is a function of the
   seed; a repetition ("rep") is one engine call, and [scale] picks its
   size: [`Full] for measurement, [`Smoke] (~1%) for the tier-1 smoke,
   [`Warmup] for the short call that finishes lazy set-up (intern
   caches, heap growth) before the first timed rep. *)

open Sched

type scale = [ `Full | `Smoke | `Warmup ]

type explore_case = {
  mk : unit -> Runtime.Machine.t * Obj_inst.t;
  workloads : History.Spec.op list array;
  cfg : Modelcheck.Explore.config;
  min_configs : int;  (** certification bound; 0 = none *)
}

type kind =
  | Torture of { spec : Torture.spec; trials : int }
  | Campaign of { spec : Torture.spec; trials : int }
  | Explore of explore_case

type t = {
  name : string;
  kind : kind;
  golden_key : string;
      (** whose golden entry this workload must reproduce: campaign_dcas
          must produce torture_dcas's report *)
}

let names =
  [
    "torture_dcas";
    "torture_dqueue";
    "campaign_dcas";
    "explore_drw_crash";
    "certify_uniform_n5";
  ]

let int v = Nvm.Value.Int v

(* the dcas_n3_mix spec of bench/main.ml *)
let dcas_spec () =
  Torture.default_spec_of ~label:"dcas_n3_mix"
    ~mk:(fun () ->
      let m = Runtime.Machine.create () in
      (m, Detectable.Dcas.instance (Detectable.Dcas.create m ~n:3 ~init:(int 0))))
    ~workloads_of_seed:(fun s ->
      Workload.cas (Dtc_util.Prng.create s) ~procs:3 ~ops_per_proc:3 ~values:2)
    ()

let dqueue_spec () =
  Torture.default_spec_of ~label:"dqueue_n3_mix4"
    ~mk:(fun () ->
      let m = Runtime.Machine.create () in
      ( m,
        Detectable.Dqueue.instance (Detectable.Dqueue.create m ~n:3 ~capacity:64)
      ))
    ~workloads_of_seed:(fun s ->
      Workload.queue (Dtc_util.Prng.create s) ~procs:3 ~ops_per_proc:4 ~values:3)
    ()

let trials ~scale full =
  match scale with
  | `Full -> full
  | `Smoke -> max 1 (full / 100)
  | `Warmup -> max 1 (full / 50)

(* [k] distinct values from [1, 255]: non-zero (0 is the initial value)
   and inside the small-int intern cache, so no seed pays for boxed
   values.  Renaming the values of an exhaustive search does not change
   its shape, which is why the explorer goldens are seed-independent. *)
let distinct_values seed k =
  let g = Dtc_util.Prng.create seed in
  let pool = Array.init 255 (fun v -> v + 1) in
  Dtc_util.Prng.shuffle g pool;
  Array.sub pool 0 k

let explore_drw_crash ~seed ~scale =
  let v = distinct_values seed 2 in
  let base = Modelcheck.Explore.default_config in
  let cfg =
    match scale with
    | `Full -> { base with switch_budget = 4; crash_budget = 1 }
    | `Smoke -> { base with switch_budget = 2; crash_budget = 1 }
    | `Warmup -> { base with switch_budget = 4; crash_budget = 1; node_budget = 40_000 }
  in
  {
    mk =
      (fun () ->
        let m = Runtime.Machine.create () in
        (m, Detectable.Drw.instance (Detectable.Drw.create m ~n:2 ~init:(int 0))));
    workloads =
      [|
        [ History.Spec.write_op (int v.(0)); History.Spec.read_op ];
        [ History.Spec.write_op (int v.(1)) ];
      |];
    cfg;
    min_configs = 0;
  }

(* Theorem 1's uniform CAS chain: every process runs
   cas(v0,v1); ...; cas(v(n-1),vn) from initial value v0. *)
let certify_uniform ~seed ~scale =
  let n = match scale with `Smoke -> 3 | `Full | `Warmup -> 5 in
  let v = Array.map int (distinct_values seed (n + 1)) in
  let cfg =
    {
      Modelcheck.Explore.default_config with
      switch_budget = 2;
      crash_budget = 0;
      max_steps = 50_000;
      reduction = `Dpor_sym_memo;
      node_budget = (match scale with `Warmup -> 10_000 | _ -> 0);
    }
  in
  {
    mk =
      (fun () ->
        let m = Runtime.Machine.create () in
        (m, Detectable.Dcas.instance (Detectable.Dcas.create m ~n ~init:v.(0))));
    workloads =
      Array.init n (fun _ ->
          List.init n (fun k -> History.Spec.cas_op v.(k) v.(k + 1)));
    cfg;
    min_configs = (match scale with `Warmup -> 0 | _ -> 1 lsl (n - 1));
  }

let make name ~seed ~scale =
  let kind =
    match name with
    | "torture_dcas" -> Torture { spec = dcas_spec (); trials = trials ~scale 50_000 }
    | "torture_dqueue" ->
        Torture { spec = dqueue_spec (); trials = trials ~scale 8_000 }
    | "campaign_dcas" ->
        Campaign { spec = dcas_spec (); trials = trials ~scale 50_000 }
    | "explore_drw_crash" -> Explore (explore_drw_crash ~seed ~scale)
    | "certify_uniform_n5" -> Explore (certify_uniform ~seed ~scale)
    | n -> invalid_arg ("unknown workload " ^ n)
  in
  let golden_key = if name = "campaign_dcas" then "torture_dcas" else name in
  { name; kind; golden_key }

(* the torture spec a campaign worker process rebuilds from its argv *)
let campaign_spec = function
  | "campaign_dcas" -> dcas_spec ()
  | n -> invalid_arg ("not a campaign workload: " ^ n)
