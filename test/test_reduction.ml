(* Tests for the explorer's search-space reductions (sleep-set DPOR and
   process-symmetry canonicalisation) and their soundness contracts:

   - verdict parity: [`None], [`Dpor] and [`Dpor_sym] agree on whether a
     workload violates, on the broken ablations and on random workloads
     (reduction prunes redundant interleavings, never the bug);
   - the symmetry quotient: canonical fingerprints are invariant under
     process-id permutation where raw fingerprints are not, and
     [`Dpor_sym] degrades to exactly [`Dpor] on objects that do not
     declare an id-symmetric layout;
   - lower bounds: reduced searches visit a subset of the unreduced
     search's work but certify the same Theorem 1 configuration counts
     (the committed bench/BENCH_lowerbound.json is the full-size version
     of the growth check here). *)

open Nvm
open History
open Sched

let i n = Value.Int n

let mk_no_vec () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.dcas_no_vec m ~n:2 ~init:(i 0))

let no_vec_workload =
  [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]

let mk_reexec () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.rw_no_aux_reexec m ~n:2 ~init:(i 0))

let fig2_workload =
  [|
    [ Spec.write_op (i 1) ]; [ Spec.read_op; Spec.write_op (i 0); Spec.read_op ];
  |]

let reductions = Modelcheck.Explore.reductions

let explore_with ?(switches = 2) ?(crashes = 1) ~mk ~workloads red =
  Modelcheck.Explore.explore ~mk ~workloads
    {
      Modelcheck.Explore.default_config with
      switch_budget = switches;
      crash_budget = crashes;
      reduction = red;
    }

(* --- verdict parity on the ablations ------------------------------- *)

let check_verdict_parity ~name ~mk ~workloads () =
  let outs = List.map (explore_with ~mk ~workloads) reductions in
  let violates (o : Modelcheck.Explore.outcome) =
    o.Modelcheck.Explore.total_violations > 0
  in
  let base = violates (List.hd outs) in
  List.iter2
    (fun red out ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s verdict" name
           (Modelcheck.Explore.reduction_name red))
        base (violates out))
    reductions outs;
  (* a reduced search never does more work than the unreduced one *)
  let unreduced = List.hd outs in
  List.iter
    (fun (out : Modelcheck.Explore.outcome) ->
      Alcotest.(check bool)
        (name ^ ": reduced executions <= unreduced")
        true
        (out.Modelcheck.Explore.executions
        <= unreduced.Modelcheck.Explore.executions);
      Alcotest.(check bool)
        (name ^ ": reduced configs <= unreduced")
        true
        (out.Modelcheck.Explore.distinct_shared_configs
        <= unreduced.Modelcheck.Explore.distinct_shared_configs))
    (List.tl outs)

let test_parity_no_vec () =
  check_verdict_parity ~name:"dcas_no_vec" ~mk:mk_no_vec
    ~workloads:no_vec_workload ()

let test_parity_reexec () =
  check_verdict_parity ~name:"rw_no_aux_reexec" ~mk:mk_reexec
    ~workloads:fig2_workload ()

let test_parity_healthy_dcas () =
  (* a correct object stays violation-free under every reduction *)
  List.iter
    (fun red ->
      let out =
        explore_with
          ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
          ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 2) ] |]
          red
      in
      Alcotest.(check int)
        (Modelcheck.Explore.reduction_name red ^ " violations")
        0 out.Modelcheck.Explore.total_violations)
    reductions

let prop_parity_random_workloads =
  (* verdict parity over randomly generated cas workloads on the ablated
     (violating) object — each seed is a fresh property case *)
  QCheck.Test.make ~name:"reduction verdict parity on random workloads"
    ~count:12 QCheck.small_nat (fun seed ->
      let workloads =
        Workload.cas
          (Dtc_util.Prng.create (seed + 1))
          ~procs:2 ~ops_per_proc:2 ~values:2
      in
      let outs =
        List.map (explore_with ~mk:mk_no_vec ~workloads) reductions
      in
      let violates (o : Modelcheck.Explore.outcome) =
        o.Modelcheck.Explore.total_violations > 0
      in
      let base = violates (List.hd outs) in
      List.for_all (fun o -> violates o = base) (List.tl outs)
      && List.for_all
           (fun (o : Modelcheck.Explore.outcome) ->
             o.Modelcheck.Explore.executions
             <= (List.hd outs).Modelcheck.Explore.executions)
           (List.tl outs))

(* --- the symmetry quotient ----------------------------------------- *)

let run_to_completion session =
  let rec go () =
    match Session.runnable session with
    | [] -> ()
    | pid :: _ ->
        Session.step session pid;
        go ()
  in
  go ()

let mem_after ~n workloads =
  let m = Runtime.Machine.create () in
  let inst =
    Detectable.Dcas.instance (Detectable.Dcas.create m ~n ~init:(i 0))
  in
  let session = Session.create m inst ~workloads in
  run_to_completion session;
  Runtime.Machine.mem m

let test_canonical_fingerprint_quotient () =
  (* the same solo CAS run by p0 vs by p1: raw fingerprints differ (the
     private blocks and the flip vector are pid-indexed), canonical
     fingerprints of the shared cells agree (C's flip vector is one
     transposition apart) *)
  let a = mem_after ~n:2 [| [ Spec.cas_op (i 0) (i 1) ]; [] |] in
  let b = mem_after ~n:2 [| []; [ Spec.cas_op (i 0) (i 1) ] |] in
  let full m = (Mem.live_full_a m, Mem.live_full_b m) in
  Alcotest.(check bool) "raw fingerprints differ" true (full a <> full b);
  Alcotest.(check bool)
    "canonical fingerprints agree" true
    (Modelcheck.Sym.canonical_fingerprint_shared ~n:2 a
    = Modelcheck.Sym.canonical_fingerprint_shared ~n:2 b);
  (* distinct orbits must stay distinct: p0's CAS vs no CAS at all *)
  let c = mem_after ~n:2 [| []; [] |] in
  Alcotest.(check bool)
    "distinct orbits distinguished" true
    (Modelcheck.Sym.canonical_fingerprint_shared ~n:2 a
    <> Modelcheck.Sym.canonical_fingerprint_shared ~n:2 c)

let test_swap_invariant () =
  (* freshly created: all processes interchangeable; after p0 runs a CAS
     the transposition (0 1) no longer fixes the configuration *)
  let fresh = mem_after ~n:2 [| []; [] |] in
  Alcotest.(check bool)
    "initial config is swap-invariant" true
    (Modelcheck.Sym.swap_invariant ~n:2 fresh 0 1);
  let after = mem_after ~n:2 [| [ Spec.cas_op (i 0) (i 1) ]; [] |] in
  Alcotest.(check bool)
    "post-CAS config is not swap-invariant" false
    (Modelcheck.Sym.swap_invariant ~n:2 after 0 1)

let test_sym_prunes_symmetric_workloads () =
  (* three processes running the identical workload on an id-symmetric
     object: the symmetry reduction fires and verdicts are unchanged *)
  let workloads = Array.make 3 [ Spec.cas_op (i 0) (i 1) ] in
  let mk () = Test_support.mk_dcas ~n:3 () in
  let dpor = explore_with ~mk ~workloads ~crashes:0 `Dpor in
  let sym = explore_with ~mk ~workloads ~crashes:0 `Dpor_sym in
  Alcotest.(check bool)
    "symmetry skips happened" true
    (sym.Modelcheck.Explore.metrics.Modelcheck.Explore.sym_skips > 0);
  Alcotest.(check int) "verdicts agree"
    dpor.Modelcheck.Explore.total_violations
    sym.Modelcheck.Explore.total_violations;
  Alcotest.(check bool)
    "symmetry explores no more nodes" true
    (sym.Modelcheck.Explore.nodes <= dpor.Modelcheck.Explore.nodes)

let test_sym_inert_on_asymmetric_object () =
  (* Algorithm 1 stores the writer pid in shared cells, so it does not
     declare id_symmetric — [`Dpor_sym] must behave exactly like [`Dpor] *)
  let mk () = Test_support.mk_drw ~n:2 () in
  let workloads = Array.make 2 [ Spec.write_op (i 1); Spec.read_op ] in
  let dpor = explore_with ~mk ~workloads `Dpor in
  let sym = explore_with ~mk ~workloads `Dpor_sym in
  Alcotest.(check int) "sym_skips = 0" 0
    sym.Modelcheck.Explore.metrics.Modelcheck.Explore.sym_skips;
  Alcotest.(check int) "executions equal" dpor.Modelcheck.Explore.executions
    sym.Modelcheck.Explore.executions;
  Alcotest.(check int) "nodes equal" dpor.Modelcheck.Explore.nodes
    sym.Modelcheck.Explore.nodes;
  Alcotest.(check int) "configs equal"
    dpor.Modelcheck.Explore.distinct_shared_configs
    sym.Modelcheck.Explore.distinct_shared_configs;
  Alcotest.(check int) "violations equal"
    dpor.Modelcheck.Explore.total_violations
    sym.Modelcheck.Explore.total_violations

(* --- sleep sets and the node budget -------------------------------- *)

let test_sleep_skips_fire () =
  let out =
    explore_with
      ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 2) ] |]
      `Dpor
  in
  Alcotest.(check bool)
    "sleep-set pruning happened" true
    (out.Modelcheck.Explore.metrics.Modelcheck.Explore.sleep_skips > 0);
  Alcotest.(check string) "metrics label" "dpor"
    out.Modelcheck.Explore.metrics.Modelcheck.Explore.reduction

let test_node_budget_caps () =
  let run budget =
    Modelcheck.Explore.explore
      ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 2) ] |]
      {
        Modelcheck.Explore.default_config with
        switch_budget = 2;
        crash_budget = 1;
        node_budget = budget;
      }
  in
  let capped = run 50 and free = run 0 in
  Alcotest.(check bool) "capped flag set" true capped.Modelcheck.Explore.capped;
  Alcotest.(check int) "stopped at the budget" 50
    capped.Modelcheck.Explore.nodes;
  Alcotest.(check bool) "no cap without budget" false
    free.Modelcheck.Explore.capped;
  Alcotest.(check bool)
    "capped counters are lower bounds" true
    (capped.Modelcheck.Explore.distinct_shared_configs
    <= free.Modelcheck.Explore.distinct_shared_configs)

(* --- the Theorem 1 growth check, smoke-sized ----------------------- *)

let test_lowerbound_growth_small () =
  (* graded CAS chains (process p runs cas(0,1)..cas(p,p+1)): the
     reduced explorer's distinct-configuration count must clear 2^(N-1)
     — the full N<=6 sweep is the committed bench/BENCH_lowerbound.json *)
  List.iter
    (fun n ->
      let workloads =
        Array.init n (fun p ->
            List.init (p + 1) (fun k -> Spec.cas_op (i k) (i (k + 1))))
      in
      let out =
        Modelcheck.Explore.explore
          ~mk:(fun () -> Test_support.mk_dcas ~n ())
          ~workloads
          {
            Modelcheck.Explore.default_config with
            switch_budget = 1;
            crash_budget = 0;
            reduction = `Dpor;
          }
      in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d: configs >= 2^(N-1)" n)
        true
        (out.Modelcheck.Explore.distinct_shared_configs >= 1 lsl (n - 1));
      Alcotest.(check bool)
        (Printf.sprintf "N=%d: not capped" n)
        false out.Modelcheck.Explore.capped)
    [ 2; 3; 4 ]

(* --- symmetry-canonical memoisation -------------------------------- *)

let uniform_cas n = Array.make n [ Spec.cas_op (i 0) (i 1); Spec.cas_op (i 1) (i 2) ]

let explore_full ?(switches = 2) ?(crashes = 0) ?(exact = false) ~mk ~workloads
    red =
  Modelcheck.Explore.explore ~mk ~workloads
    {
      Modelcheck.Explore.default_config with
      switch_budget = switches;
      crash_budget = crashes;
      reduction = red;
      exact_configs = exact;
    }

(* The canonical memo key folds per-process digests that the explorer
   resumes from the parent node's slots (see [Explore.slot_sig]).  A
   slot that resumed from a stale cursor would still transfer exact
   subtree sizes, so every count-level invariant above holds; only the
   search shape moves: extra (false) memo hits and fewer nodes.  Pin
   that shape on Theorem 1's N=3 uniform CAS chain. *)
let test_memo_search_shape_pinned () =
  let n = 3 in
  let mk () = Test_support.mk_dcas ~n () in
  let workloads =
    Array.make n (List.init n (fun k -> Spec.cas_op (i k) (i (k + 1))))
  in
  let o = explore_full ~mk ~workloads `Dpor_sym_memo in
  let m = o.Modelcheck.Explore.metrics in
  Alcotest.(check (list int)) "nodes, dedup hits, executions, configs"
    [ 13_228; 213; 555; 12 ]
    Modelcheck.Explore.
      [ o.nodes; m.dedup_hits; o.executions; o.distinct_shared_configs ]

let test_memo_weighted_count_matches_unreduced () =
  (* orbit-size-weighted canonical counting reconstructs exactly the
     unreduced search's configuration count: the budget-limited reachable
     set is closed under process permutation (uniform workloads,
     id-symmetric object, equivariant switch accounting), so summing
     orbit sizes over visited orbit representatives recovers its full
     cardinality *)
  let mk () = Test_support.mk_dcas ~n:3 () in
  let workloads = uniform_cas 3 in
  let none = explore_full ~mk ~workloads `None in
  let memo = explore_full ~mk ~workloads `Dpor_sym_memo in
  Alcotest.(check int) "weighted configs = unreduced configs"
    none.Modelcheck.Explore.distinct_shared_configs
    memo.Modelcheck.Explore.distinct_shared_configs;
  let orbits =
    memo.Modelcheck.Explore.metrics.Modelcheck.Explore.canonical_orbits
  in
  Alcotest.(check bool) "orbits counted" true (orbits > 0);
  Alcotest.(check bool) "orbits compress the count" true
    (orbits < memo.Modelcheck.Explore.distinct_shared_configs);
  Alcotest.(check int) "verdict parity"
    none.Modelcheck.Explore.total_violations
    memo.Modelcheck.Explore.total_violations;
  Alcotest.(check string) "metrics label" "dpor+sym-memo"
    memo.Modelcheck.Explore.metrics.Modelcheck.Explore.reduction;
  (* the Exact audit keys on the same live canonical digest: it must
     count the same orbits and weights, and find no collision *)
  let exact = explore_full ~mk ~workloads ~exact:true `Dpor_sym_memo in
  Alcotest.(check int) "exact weighted configs"
    memo.Modelcheck.Explore.distinct_shared_configs
    exact.Modelcheck.Explore.distinct_shared_configs;
  Alcotest.(check int) "exact orbits" orbits
    exact.Modelcheck.Explore.metrics.Modelcheck.Explore.canonical_orbits;
  Alcotest.(check int) "exact audit: no collisions" 0
    exact.Modelcheck.Explore.metrics.Modelcheck.Explore.fingerprint_collisions

let prop_canonical_quotient_sound =
  (* the soundness audit for canonical fingerprints as quotient keys:
     under [exact_configs] a canonical set buckets full snapshots by
     canonical fingerprint and checks π-relatedness
     ({!Sym.related_shared}) inside each bucket, counting any
     equal-fingerprint-but-unrelated pair as a collision.  Zero
     collisions over randomised uniform workloads is exactly the
     property that makes orbit-weighted counting a lower bound. *)
  QCheck.Test.make ~name:"canonical fingerprint is a sound quotient key"
    ~count:6 QCheck.small_nat (fun seed ->
      let shared =
        match
          Array.to_list
            (Workload.cas
               (Dtc_util.Prng.create (seed + 1))
               ~procs:1 ~ops_per_proc:3 ~values:3)
        with
        | [ ops ] -> ops
        | _ -> assert false
      in
      let out =
        explore_full
          ~mk:(fun () -> Test_support.mk_dcas ~n:3 ())
          ~workloads:(Array.make 3 shared) ~exact:true `Dpor_sym_memo
      in
      out.Modelcheck.Explore.metrics.Modelcheck.Explore.fingerprint_collisions
      = 0)

let test_memo_degrades_on_nonuniform_workloads () =
  (* non-uniform workloads break the relabeling argument, so the mode
     must degrade to exactly [`Dpor_sym]: same nodes, executions and raw
     (unweighted) configuration count, no orbit accounting *)
  let mk () = Test_support.mk_dcas ~n:2 () in
  let workloads =
    [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 2) ] |]
  in
  let sym = explore_full ~mk ~workloads `Dpor_sym in
  let memo = explore_full ~mk ~workloads `Dpor_sym_memo in
  Alcotest.(check int) "nodes equal" sym.Modelcheck.Explore.nodes
    memo.Modelcheck.Explore.nodes;
  Alcotest.(check int) "executions equal" sym.Modelcheck.Explore.executions
    memo.Modelcheck.Explore.executions;
  Alcotest.(check int) "configs equal (raw, unweighted)"
    sym.Modelcheck.Explore.distinct_shared_configs
    memo.Modelcheck.Explore.distinct_shared_configs;
  Alcotest.(check int) "no orbit accounting" 0
    memo.Modelcheck.Explore.metrics.Modelcheck.Explore.canonical_orbits

let test_memo_parity_under_crashes () =
  (* crashed paths fall back to raw memo keys; the two key families
     share the table without perturbing the verdict *)
  let mk () = Test_support.mk_dcas ~n:2 () in
  let workloads = uniform_cas 2 in
  let none = explore_full ~mk ~workloads ~crashes:1 `None in
  let memo = explore_full ~mk ~workloads ~crashes:1 `Dpor_sym_memo in
  Alcotest.(check int) "verdict parity under crashes"
    none.Modelcheck.Explore.total_violations
    memo.Modelcheck.Explore.total_violations

let test_source_skips_fire () =
  (* the source-set rule needs a process whose pending request is local
     (dcas's private announcement writes) and no remaining crash budget *)
  let out =
    explore_full
      ~mk:(fun () -> Test_support.mk_dcas ~n:3 ())
      ~workloads:(uniform_cas 3) `Dpor
  in
  Alcotest.(check bool) "source-set pruning happened" true
    (out.Modelcheck.Explore.metrics.Modelcheck.Explore.source_skips > 0);
  Alcotest.(check bool) "source pruning cut executions" true
    (out.Modelcheck.Explore.executions
    <= (explore_full
          ~mk:(fun () -> Test_support.mk_dcas ~n:3 ())
          ~workloads:(uniform_cas 3) `None)
         .Modelcheck.Explore.executions)

let suites =
  [
    ( "reduction",
      [
        Alcotest.test_case "verdict parity (dcas_no_vec)" `Quick
          test_parity_no_vec;
        Alcotest.test_case "verdict parity (rw_no_aux_reexec)" `Quick
          test_parity_reexec;
        Alcotest.test_case "healthy object stays clean" `Quick
          test_parity_healthy_dcas;
        QCheck_alcotest.to_alcotest prop_parity_random_workloads;
        Alcotest.test_case "sleep skips fire" `Quick test_sleep_skips_fire;
        Alcotest.test_case "node budget caps" `Quick test_node_budget_caps;
        Alcotest.test_case "lower-bound growth (small N)" `Quick
          test_lowerbound_growth_small;
      ] );
    ( "symmetry",
      [
        Alcotest.test_case "canonical fingerprint is a quotient" `Quick
          test_canonical_fingerprint_quotient;
        Alcotest.test_case "swap invariance tracks the run" `Quick
          test_swap_invariant;
        Alcotest.test_case "prunes symmetric workloads" `Quick
          test_sym_prunes_symmetric_workloads;
        Alcotest.test_case "inert on id-asymmetric objects" `Quick
          test_sym_inert_on_asymmetric_object;
      ] );
    ( "sym-memo",
      [
        Alcotest.test_case "weighted count matches unreduced" `Quick
          test_memo_weighted_count_matches_unreduced;
        QCheck_alcotest.to_alcotest prop_canonical_quotient_sound;
        Alcotest.test_case "degrades on non-uniform workloads" `Quick
          test_memo_degrades_on_nonuniform_workloads;
        Alcotest.test_case "verdict parity under crashes" `Quick
          test_memo_parity_under_crashes;
        Alcotest.test_case "source skips fire" `Quick test_source_skips_fire;
        Alcotest.test_case "search shape pinned (N=3 uniform chain)" `Quick
          test_memo_search_shape_pinned;
      ] );
  ]
