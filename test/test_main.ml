(* Aggregated test entry point: every suite from every test module, run
   under a single Alcotest binary so `dune runtest` covers the whole
   repository. *)

(* The campaign supervisor tests respawn this very binary as their
   worker process (argv.(1) = "campaign-worker"); dispatch before
   Alcotest parses argv. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "campaign-worker" then
    Test_campaign.worker_mode ();
  Alcotest.run "detectable-objects"
    (List.concat
       [
         Test_util.suites;
         Test_value.suites;
         Test_mem.suites;
         Test_runtime.suites;
         Test_spec.suites;
         Test_lin_check.suites;
         Test_session.suites;
         Test_drw.suites;
         Test_dcas.suites;
         Test_dmax.suites;
         Test_transform.suites;
         Test_dqueue.suites;
         Test_nrl.suites;
         Test_baselines.suites;
         Test_broken.suites;
         Test_modelcheck.suites;
         Test_reduction.suites;
         Test_perturb.suites;
         Test_shared_cache.suites;
         Test_extras.suites;
         Test_compose.suites;
         Test_rlock.suites;
         Test_experiments.suites;
         Test_ulog.suites;
         Test_hist.suites;
         Test_reference.suites;
         Test_lemma_proofs.suites;
         Test_shrink.suites;
         Test_torture.suites;
         Test_campaign.suites;
         Test_objects.suites;
       ])
