open Nvm

let i n = Value.Int n

let predicted_table ~title columns rows =
  let t = Dtc_util.Table.create ~title (columns @ [ "as predicted" ]) in
  List.iter
    (fun (cells, ok) ->
      Dtc_util.Table.add_row t (cells @ [ (if ok then "yes" else "NO") ]))
    rows;
  t

let violations (r : Torture.report) =
  r.not_linearized + r.incomplete + r.budget_exhausted + r.engine_faults

let run_steps ~mk ~workloads ~seed =
  let machine, inst = mk () in
  (* inject a couple of crashes so recovery step counts are populated *)
  let cfg =
    Sched.Driver.seeded_config ~max_steps:1_000_000 ~max_crashes:2
      ~crash_prob:0.03
      (Dtc_util.Prng.create seed)
  in
  Sched.Driver.run machine inst ~workloads cfg
