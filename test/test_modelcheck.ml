(* Tests for the bounded exhaustive explorer itself. *)

open Nvm
open History
open Sched

let i n = Value.Int n

let test_deterministic_replay () =
  (* same configuration twice gives identical statistics *)
  let cfg =
    { Modelcheck.Explore.default_config with switch_budget = 2; crash_budget = 0 }
  in
  let run () =
    Modelcheck.Explore.explore
      ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.read_op ] |]
      cfg
  in
  let a = run () and b = run () in
  Alcotest.(check int) "executions" a.Modelcheck.Explore.executions
    b.Modelcheck.Explore.executions;
  Alcotest.(check int) "nodes" a.Modelcheck.Explore.nodes
    b.Modelcheck.Explore.nodes;
  Alcotest.(check int) "configs" a.Modelcheck.Explore.distinct_shared_configs
    b.Modelcheck.Explore.distinct_shared_configs

let test_switch_budget_monotone () =
  (* a larger budget explores at least as many executions *)
  let run budget =
    (Modelcheck.Explore.explore
       ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
       ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 0) (i 2) ] |]
       {
         Modelcheck.Explore.default_config with
         switch_budget = budget;
         crash_budget = 0;
       })
      .Modelcheck.Explore.executions
  in
  let e0 = run 0 and e1 = run 1 and e2 = run 2 in
  Alcotest.(check bool) "0 <= 1" true (e0 <= e1);
  Alcotest.(check bool) "1 <= 2" true (e1 <= e2);
  (* budget 0: each process runs as a solo block; with two processes there
     are exactly 2 executions *)
  Alcotest.(check int) "budget 0 = two block orders" 2 e0

let test_crash_budget_zero_means_no_crash () =
  let out =
    Modelcheck.Explore.explore
      ~mk:(fun () -> Test_support.mk_dcas ~n:1 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ] |]
      { Modelcheck.Explore.default_config with crash_budget = 0; switch_budget = 0 }
  in
  Alcotest.(check int) "single execution" 1 out.Modelcheck.Explore.executions;
  List.iter
    (fun (v : Modelcheck.Explore.violation) ->
      Alcotest.failf "unexpected violation %s" v.msg)
    out.Modelcheck.Explore.violations

let test_configs_counted_up_to_equivalence () =
  (* a solo CAS on a 1-process object visits exactly 2 distinct shared
     configurations: initial and post-CAS *)
  let out =
    Modelcheck.Explore.explore
      ~mk:(fun () -> Test_support.mk_dcas ~n:1 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ] |]
      { Modelcheck.Explore.default_config with crash_budget = 0; switch_budget = 0 }
  in
  Alcotest.(check int) "two configs" 2
    out.Modelcheck.Explore.distinct_shared_configs

let test_crash_points_covers_all () =
  let out =
    Sched.Driver.crash_points
      ~mk:(fun () -> Test_support.mk_dcas ~n:1 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  (* one crash-free run + one run per step of the crash-free run *)
  Alcotest.(check bool) "several executions" true
    (out.Sched.Driver.executions > 5)

let test_violation_reports_schedule () =
  let out =
    Modelcheck.Explore.explore
      ~mk:(fun () ->
        let m = Runtime.Machine.create () in
        (m, Baselines.Broken.dcas_no_vec m ~n:2 ~init:(i 0)))
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]
      Modelcheck.Explore.default_config
  in
  match out.Modelcheck.Explore.violations with
  | [] -> Alcotest.fail "expected a violation sample"
  | v :: _ ->
      Alcotest.(check bool) "has schedule" true (v.decisions <> []);
      Alcotest.(check bool) "has history" true (v.history <> []);
      Alcotest.(check bool) "schedule contains the crash" true
        (List.mem Sched.Decision.Crash v.decisions)

(* --- pruned / parallel engines agree with the original engine ---

   Memoisation stores exact subtree summaries, so every externally
   observable counter (executions, truncated, violations, distinct shared
   configurations) must be bit-identical to the unpruned engine; only the
   number of physically replayed nodes may shrink.  The same holds for the
   domain-partitioned engine, whose workers split the top-level frontier. *)

let mk_no_vec () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.dcas_no_vec m ~n:2 ~init:(i 0))

let no_vec_workload =
  [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]

let mk_reexec () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.rw_no_aux_reexec m ~n:2 ~init:(i 0))

(* Figure 2 workload: p writes, q reads around q's own write. *)
let fig2_workload =
  [|
    [ Spec.write_op (i 1) ]; [ Spec.read_op; Spec.write_op (i 0); Spec.read_op ];
  |]

let check_engines_agree ~mk ~workloads ~switches ~crashes () =
  let base =
    {
      Modelcheck.Explore.default_config with
      switch_budget = switches;
      crash_budget = crashes;
    }
  in
  let run cfg = Modelcheck.Explore.explore ~mk ~workloads cfg in
  let unpruned = run { base with prune = false } in
  let agree label (out : Modelcheck.Explore.outcome) =
    Alcotest.(check int)
      (label ^ ": total_violations")
      unpruned.Modelcheck.Explore.total_violations
      out.Modelcheck.Explore.total_violations;
    Alcotest.(check int)
      (label ^ ": distinct_shared_configs")
      unpruned.Modelcheck.Explore.distinct_shared_configs
      out.Modelcheck.Explore.distinct_shared_configs;
    Alcotest.(check int)
      (label ^ ": executions")
      unpruned.Modelcheck.Explore.executions
      out.Modelcheck.Explore.executions;
    Alcotest.(check int)
      (label ^ ": truncated")
      unpruned.Modelcheck.Explore.truncated out.Modelcheck.Explore.truncated
  in
  let pruned = run { base with prune = true; exact_configs = true } in
  agree "pruned" pruned;
  (* every replay the pruned engine skipped is accounted for *)
  Alcotest.(check int) "pruned: nodes + nodes_saved = unpruned nodes"
    unpruned.Modelcheck.Explore.nodes
    (pruned.Modelcheck.Explore.nodes
    + pruned.Modelcheck.Explore.metrics.Modelcheck.Explore.nodes_saved);
  Alcotest.(check int) "pruned: no fingerprint collisions" 0
    pruned.Modelcheck.Explore.metrics.Modelcheck.Explore.fingerprint_collisions;
  pruned

let test_engines_agree_no_vec () =
  let pruned =
    check_engines_agree ~mk:mk_no_vec ~workloads:no_vec_workload ~switches:2
      ~crashes:1 ()
  in
  (* the no-vec ablation actually violates, so agreement is not vacuous *)
  Alcotest.(check bool) "violations present" true
    (pruned.Modelcheck.Explore.total_violations > 0);
  Alcotest.(check bool) "dedup engaged" true
    (pruned.Modelcheck.Explore.metrics.Modelcheck.Explore.dedup_hits > 0)

let test_engines_agree_reexec () =
  ignore
    (check_engines_agree ~mk:mk_reexec ~workloads:fig2_workload ~switches:2
       ~crashes:1 ())

(* --- the explorer agrees with the naive reference ---

   [Ref_modelcheck.explore] walks the same delay-bounded family with no
   memo, no reduction and no undo journal, rebuilding every node from
   the root, judging leaves with the batch checker and counting
   configurations by pairwise memory-equivalence.  So every
   externally observable count must be identical, with pruning on or
   off.  Violation samples come from physically explored leaves, so
   they are always among the reference's violations; without pruning
   every violating leaf is explored, and the run must then report
   exactly the reference's first ones.  Violation messages are part of
   the compared signature, so this is also the parity check between
   the explorer's incremental checker and the batch one. *)

let viol_sig (v : Modelcheck.Explore.violation) = (v.decisions, v.msg, v.history)

let matches_reference ~mk ~workloads ~switches ~crashes () =
  let base =
    {
      Modelcheck.Explore.default_config with
      switch_budget = switches;
      crash_budget = crashes;
    }
  in
  let r = Ref_modelcheck.explore ~mk ~workloads base in
  let ref_viols = List.map viol_sig r.violations in
  let n_ref = List.length ref_viols in
  List.for_all
    (fun prune ->
      let o = Modelcheck.Explore.explore ~mk ~workloads { base with prune } in
      let samples = List.map viol_sig o.Modelcheck.Explore.violations in
      let max_v = 3 (* the explorer keeps the first 3 samples *) in
      o.Modelcheck.Explore.executions = r.executions
      && o.Modelcheck.Explore.truncated = r.truncated
      && o.Modelcheck.Explore.total_violations = n_ref
      && o.Modelcheck.Explore.distinct_shared_configs
         = r.distinct_shared_configs
      && List.for_all (fun v -> List.mem v ref_viols) samples
      && (samples <> [] || n_ref = 0)
      && (prune
         || samples = List.filteri (fun i _ -> i < max_v) ref_viols))
    [ true; false ]

let check_matches_reference ~mk ~workloads ~switches ~crashes () =
  Alcotest.(check bool) "product = reference" true
    (matches_reference ~mk ~workloads ~switches ~crashes ())

(* what only the incremental checker does: each shared-prefix event is
   pushed once, so fewer events reach it than the leaves hold *)
let check_frontier_reuse label (o : Modelcheck.Explore.outcome) =
  let m = o.Modelcheck.Explore.metrics in
  Alcotest.(check bool) (label ^ ": frontier actually reused") true
    (m.Modelcheck.Explore.lin_reuse_rate > 0.0);
  Alcotest.(check bool) (label ^ ": frontier histogram populated") true
    (m.Modelcheck.Explore.frontier_hist <> []);
  Alcotest.(check bool) (label ^ ": pushed <= total events") true
    (m.Modelcheck.Explore.lin_events_pushed
    <= m.Modelcheck.Explore.lin_events_total)

let test_reference_drw () =
  let mk () = Test_support.mk_drw ~n:2 ()
  and workloads =
    [| [ Spec.write_op (i 1); Spec.read_op ]; [ Spec.write_op (i 2) ] |]
  in
  check_matches_reference ~mk ~workloads ~switches:2 ~crashes:1 ();
  check_frontier_reuse "drw"
    (Modelcheck.Explore.explore ~mk ~workloads
       {
         Modelcheck.Explore.default_config with
         switch_budget = 2;
         crash_budget = 1;
       })

let test_reference_dcas () =
  check_matches_reference
    ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
    ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]
    ~switches:2 ~crashes:1 ()

let test_reference_broken () =
  (* on the broken ablations the agreement covers real violation sets *)
  List.iter
    (fun (name, mk, workloads) ->
      let o =
        Modelcheck.Explore.explore ~mk ~workloads
          Modelcheck.Explore.default_config
      in
      Alcotest.(check bool) (name ^ " violates") true
        (o.Modelcheck.Explore.total_violations > 0);
      Alcotest.(check bool) (name ^ " rewinds") true
        (o.Modelcheck.Explore.metrics.Modelcheck.Explore.rewound_cells > 0);
      check_frontier_reuse name o;
      check_matches_reference ~mk ~workloads ~switches:2 ~crashes:1 ())
    [ ("no_vec", mk_no_vec, no_vec_workload); ("reexec", mk_reexec, fig2_workload) ]

(* random cas workloads on the real Dcas or its no-vec ablation; each
   case costs the reference 2-8 s on a 2-vCPU VM at this budget, hence
   the small count *)
let prop_reference_random_workloads =
  QCheck.Test.make ~name:"undo = reference, random" ~count:5
    QCheck.(pair small_nat bool)
    (fun (seed, broken) ->
      let workloads =
        Workload.cas
          (Dtc_util.Prng.create (seed + 1))
          ~procs:2 ~ops_per_proc:2 ~values:2
      in
      let mk () =
        if broken then mk_no_vec () else Test_support.mk_dcas ~n:2 ()
      in
      matches_reference ~mk ~workloads ~switches:2 ~crashes:1 ())

(* Reductions visit a subset of the unreduced search's nodes, so their
   configuration counts are lower bounds — including the orbit-weighted
   counts of [`Dpor_sym_memo], which uniform CAS chains on the
   id-symmetric Dcas fully activate.  None may exceed the reference's
   exact census. *)
let prop_reduced_configs_bounded =
  QCheck.Test.make ~name:"reduced configs <= exact" ~count:6
    QCheck.(pair (int_range 2 3) (int_range 1 2))
    (fun (n, ops) ->
      let mk () = Test_support.mk_dcas ~n () in
      let workloads =
        Array.make n (List.init ops (fun k -> Spec.cas_op (i k) (i (k + 1))))
      in
      let cfg =
        {
          Modelcheck.Explore.default_config with
          switch_budget = 2;
          crash_budget = 0;
        }
      in
      let exact =
        (Ref_modelcheck.explore ~mk ~workloads cfg)
          .distinct_shared_configs
      in
      List.for_all
        (fun reduction ->
          let o = Modelcheck.Explore.explore ~mk ~workloads { cfg with reduction } in
          o.Modelcheck.Explore.distinct_shared_configs <= exact
          && (reduction <> `Dpor_sym_memo
             || o.Modelcheck.Explore.metrics.Modelcheck.Explore.canonical_orbits
                > 0))
        [ `Dpor; `Dpor_sym; `Dpor_sym_memo ])

let test_metrics_sanity () =
  let out =
    Modelcheck.Explore.explore
      ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 0) (i 2) ] |]
      { Modelcheck.Explore.default_config with switch_budget = 1 }
  in
  let m = out.Modelcheck.Explore.metrics in
  Alcotest.(check bool) "visited set populated" true
    (m.Modelcheck.Explore.peak_visited > 0);
  (* at most 3/4 full, 16 bytes per slot *)
  Alcotest.(check bool) "memo bytes cover its entries" true
    (3 * m.Modelcheck.Explore.memo_bytes
    >= 4 * 16 * m.Modelcheck.Explore.peak_visited);
  Alcotest.(check bool) "throughput measured" true
    (m.Modelcheck.Explore.nodes_per_sec > 0.0);
  Alcotest.(check bool) "elapsed measured" true
    (m.Modelcheck.Explore.elapsed_s >= 0.0);
  (* the depth histogram accounts for every replayed node exactly once *)
  Alcotest.(check int) "depth histogram sums to nodes"
    out.Modelcheck.Explore.nodes
    (List.fold_left
       (fun acc (_, n) -> acc + n)
       0 m.Modelcheck.Explore.depth_hist);
  (* histogram is sorted by depth with no duplicate buckets *)
  let depths = List.map fst m.Modelcheck.Explore.depth_hist in
  Alcotest.(check bool) "histogram sorted" true
    (depths = List.sort_uniq compare depths)

(* --- the subtree memo against a Hashtbl reference --- *)

(* field values on both sides of the 15-bit packing limit, so summaries
   take the packed path and the spill path *)
let memo_field_values = [ 0; 1; (1 lsl 15) - 1; 1 lsl 15; 1 lsl 31; max_int / 4 ]

type memo_op = Set of int * (int * int * int * int) | Find of int

let arb_memo_ops =
  let open QCheck.Gen in
  let key =
    frequency
      [
        (* dense small keys: overwrites and neighbouring slots *)
        (4, int_range 0 255);
        (* equal low bits: long probe chains that wrap the table *)
        (2, map (fun x -> x lsl 20) (int_range 0 31));
        (1, int_range 0 max_int);
      ]
  in
  let field = oneofl memo_field_values in
  let op =
    frequency
      [
        (3, map2 (fun k f -> Set (k, f)) key (quad field field field field));
        (1, map (fun k -> Find k) key);
      ]
  in
  let print_op = function
    | Set (k, (n, e, t, v)) -> Printf.sprintf "set %d (%d,%d,%d,%d)" k n e t v
    | Find k -> Printf.sprintf "find %d" k
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 100 400) op)

(* From capacity 1 and from capacity 2, every sequence doubles the
   table several times.  After every operation each key seen so far,
   bound or not, must read back exactly as in the reference. *)
let prop_memo_tbl_reference =
  QCheck.Test.make ~name:"Memo_tbl = Hashtbl reference" ~count:100 arb_memo_ops
    (fun ops ->
      let module M = Modelcheck.Memo_tbl in
      List.for_all
        (fun cap ->
          let t = M.create cap and reference = Hashtbl.create 16 in
          let seen = Hashtbl.create 16 in
          let agrees k =
            let i = M.find t k in
            match Hashtbl.find_opt reference k with
            | None -> i = -1
            | Some (n, e, tr, v) ->
                i >= 0
                && M.nodes_at t i = n
                && M.execs_at t i = e
                && M.trunc_at t i = tr
                && M.viols_at t i = v
          in
          List.for_all
            (fun op ->
              let k =
                match op with
                | Set (k, ((n, e, tr, v) as f)) ->
                    M.set t k ~nodes:n ~execs:e ~trunc:tr ~viols:v;
                    Hashtbl.replace reference k f;
                    k
                | Find k -> k
              in
              Hashtbl.replace seen k ();
              M.length t = Hashtbl.length reference
              && Hashtbl.fold (fun k () ok -> ok && agrees k) seen true)
            ops)
        [ 1; 2 ])

(* The growth rule, pinned: after n distinct inserts of packed summaries
   (no spill) the table holds 16 bytes per slot for the smallest
   power-of-two capacity c with n <= 3c/4, whatever it started from. *)
let test_memo_tbl_growth () =
  let module M = Modelcheck.Memo_tbl in
  List.iter
    (fun cap ->
      let t = M.create cap in
      let c = ref 1 in
      for n = 1 to 5_000 do
        M.set t (n * 7919) ~nodes:n ~execs:1 ~trunc:0 ~viols:0;
        while 4 * n > 3 * !c do
          c := 2 * !c
        done;
        if M.bytes t <> 16 * !c then
          Alcotest.failf "create %d, %d entries: %d bytes, expected %d" cap n
            (M.bytes t) (16 * !c)
      done)
    [ 1; 2 ]

let suites =
  [
    ( "modelcheck.explore",
      [
        Alcotest.test_case "deterministic replay" `Quick
          test_deterministic_replay;
        Alcotest.test_case "switch budget monotone" `Quick
          test_switch_budget_monotone;
        Alcotest.test_case "crash budget zero" `Quick
          test_crash_budget_zero_means_no_crash;
        Alcotest.test_case "configs up to equivalence" `Quick
          test_configs_counted_up_to_equivalence;
        Alcotest.test_case "crash_points coverage" `Quick
          test_crash_points_covers_all;
        Alcotest.test_case "violation sample" `Quick
          test_violation_reports_schedule;
        Alcotest.test_case "engines agree (dcas_no_vec)" `Quick
          test_engines_agree_no_vec;
        Alcotest.test_case "engines agree (rw_no_aux_reexec)" `Quick
          test_engines_agree_reexec;
        Alcotest.test_case "undo = reference (drw)" `Quick test_reference_drw;
        Alcotest.test_case "undo = reference (dcas)" `Quick test_reference_dcas;
        Alcotest.test_case "undo = reference (broken)" `Quick
          test_reference_broken;
        QCheck_alcotest.to_alcotest prop_reference_random_workloads;
        QCheck_alcotest.to_alcotest prop_reduced_configs_bounded;
        Alcotest.test_case "metrics sanity" `Quick test_metrics_sanity;
        QCheck_alcotest.to_alcotest prop_memo_tbl_reference;
        Alcotest.test_case "memo grows at 3/4 load" `Quick test_memo_tbl_growth;
      ] );
  ]
