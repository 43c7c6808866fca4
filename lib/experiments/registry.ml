open Dtc_util

type entry = {
  id : string;
  paper_artefact : string;
  descr : string;
  tables : unit -> Table.t list;
}

let all =
  [
    {
      id = "E1";
      paper_artefact = "Figure 1 / Theorem 1";
      descr =
        "reachable non-memory-equivalent configurations of Algorithm 2 vs \
         the 2^(N-1) lower bound";
      tables = (fun () -> [ E1_configs.table () ]);
    };
    {
      id = "E2";
      paper_artefact = "Theorem 1 + Algorithm 2";
      descr =
        "Θ(N) shared bits of detectable CAS vs the N-1 lower bound, and \
         footprint growth of the unbounded-tag baseline";
      tables =
        (fun () -> [ E2_space_cas.table_bounded (); E2_space_cas.table_unbounded () ]);
    };
    {
      id = "E3";
      paper_artefact = "Figure 2 / Theorem 2";
      descr =
        "the auxiliary-state adversary: no-aux ablations must violate, \
         announced algorithms and the max register must survive";
      tables = (fun () -> [ E3_aux_state.table () ]);
    };
    {
      id = "E4";
      paper_artefact = "Algorithm 1 vs Attiya et al.";
      descr = "bounded vs unbounded read/write footprint as operations accumulate";
      tables = (fun () -> [ E4_space_rw.table () ]);
    };
    {
      id = "E5";
      paper_artefact = "Lemmas 1-2 (wait-freedom)";
      descr = "maximum own-steps per operation and recovery over adversarial schedules";
      tables = (fun () -> [ E5_steps.table () ]);
    };
    {
      id = "E6";
      paper_artefact = "Lemmas 1-2 (correctness)";
      descr =
        "crash-torture statistics: zero violations for the paper's \
         algorithms, nonzero for the calibration ablations";
      tables = (fun () -> [ E6_torture.table () ]);
    };
    {
      id = "E7";
      paper_artefact = "Lemmas 3-8";
      descr = "mechanical verification of the doubly-perturbing witnesses";
      tables = (fun () -> [ E7_perturb.table () ]);
    };
    {
      id = "E8";
      paper_artefact = "Section 6 transformations";
      descr = "the NRL wrapper and the shared-cache persist transformation";
      tables =
        (fun () -> [ E8_transforms.table_nrl (); E8_transforms.table_shared_cache () ]);
    };
    {
      id = "E9";
      paper_artefact = "Section 6 (detectability vs durable-only)";
      descr =
        "the application-level price of durable-only recovery: duplicated \
         and unresolved operations under crash-retry, vs zero for the \
         detectable implementations";
      tables = (fun () -> [ E9_detectability_value.table () ]);
    };
    {
      id = "E10";
      paper_artefact = "Discussion (open problems)";
      descr =
        "the empirical time/space landscape across every implementation: \
         shared bits vs operation steps vs recovery steps";
      tables = (fun () -> [ E10_tradeoff.table () ]);
    };
    {
      id = "T1";
      paper_artefact = "Algorithms 1-3 (step costs)";
      descr =
        "simulated primitive steps per operation run solo, and Algorithm \
         1's write cost against N";
      tables = (fun () -> T1_solo_steps.[ steps_table (); drw_scaling_table () ]);
    };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> String.uppercase_ascii e.id = id) all

let run_one e =
  Printf.printf "---- %s — %s ----\n%s\n\n%!" e.id e.paper_artefact e.descr;
  List.iter Table.print (e.tables ())

let run_all () = List.iter run_one all
