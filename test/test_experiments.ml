(* Regression tests for the experiment harness: the quantitative claims
   the bench regenerates must keep holding (at reduced scale). *)

let test_registry_lookup () =
  Alcotest.(check (list string)) "E1-E10, then T1"
    (List.init 10 (fun k -> Printf.sprintf "E%d" (k + 1)) @ [ "T1" ])
    (List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all);
  (match Experiments.Registry.find "e3" with
  | Some e -> Alcotest.(check string) "case-insensitive" "E3" e.id
  | None -> Alcotest.fail "E3 not found");
  Alcotest.(check bool) "unknown id" true
    (Experiments.Registry.find "E99" = None)

let test_e1_subset_counts () =
  (* Algorithm 2 realises exactly 2^N non-memory-equivalent configs *)
  List.iter
    (fun n ->
      let configs = Experiments.E1_configs.subset_configs ~n in
      Alcotest.(check int) (Printf.sprintf "N=%d" n) (1 lsl n) configs;
      Alcotest.(check bool)
        (Printf.sprintf "N=%d meets the bound" n)
        true
        (configs >= 1 lsl (n - 1)))
    [ 1; 2; 3; 4; 5 ]

let test_e1_exhaustive_meets_bound () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "N=%d" n)
        true
        (Experiments.E1_configs.exhaustive_configs ~n >= 1 lsl (n - 1)))
    [ 2; 3 ]

let test_e2_dcas_flat_ucas_grows () =
  let d4 = Experiments.E2_space_cas.dcas_extra_bits ~n:2 ~ops:4 in
  let d64 = Experiments.E2_space_cas.dcas_extra_bits ~n:2 ~ops:64 in
  Alcotest.(check int) "dcas flat" d4 d64;
  let u4 = Experiments.E2_space_cas.ucas_bits ~n:2 ~ops:4 in
  let u256 = Experiments.E2_space_cas.ucas_bits ~n:2 ~ops:256 in
  Alcotest.(check bool) "ucas grows" true (u256 > u4)

let test_e2_dcas_linear_in_n () =
  (* the measured extra bits track N within a small constant *)
  List.iter
    (fun n ->
      let extra = Experiments.E2_space_cas.dcas_extra_bits ~n ~ops:4 in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d: %d within [N-1, N+2]" n extra)
        true
        (extra >= n - 1 && extra <= n + 2))
    [ 2; 4; 8 ]

let test_e4_drw_flat_urw_grows () =
  let d10 = Experiments.E4_space_rw.drw_bits ~n:3 ~ops:10 in
  let d1000 = Experiments.E4_space_rw.drw_bits ~n:3 ~ops:1000 in
  Alcotest.(check int) "drw flat" d10 d1000;
  let u10 = Experiments.E4_space_rw.urw_bits ~n:3 ~ops:10 in
  let u1000 = Experiments.E4_space_rw.urw_bits ~n:3 ~ops:1000 in
  Alcotest.(check bool) "urw grows" true (u1000 > u10)

let test_e3_all_as_predicted () =
  Alcotest.(check bool) "Theorem 2 dichotomy" true
    (Experiments.E3_aux_state.all_as_predicted ())

let test_e6_all_as_predicted () =
  Alcotest.(check bool) "Lemmas 1-2 torture + ablations" true
    (Experiments.E6_torture.all_as_predicted ())

let test_e8_all_as_predicted () =
  Alcotest.(check bool) "Sec.6 NRL wrapper + shared-cache transform" true
    (Experiments.E8_transforms.all_as_predicted ())

let test_tables_render () =
  (* the cheap tables must render without raising *)
  List.iter
    (fun t -> Alcotest.(check bool) "nonempty" true (String.length (Dtc_util.Table.render t) > 0))
    [ Experiments.E7_perturb.table () ]

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
        Alcotest.test_case "E1 subset counts" `Quick test_e1_subset_counts;
        Alcotest.test_case "E1 exhaustive bound" `Quick
          test_e1_exhaustive_meets_bound;
        Alcotest.test_case "E2 flat vs growing" `Quick
          test_e2_dcas_flat_ucas_grows;
        Alcotest.test_case "E2 linear in N" `Quick test_e2_dcas_linear_in_n;
        Alcotest.test_case "E4 flat vs growing" `Quick test_e4_drw_flat_urw_grows;
        Alcotest.test_case "E3 as predicted (Thm 2)" `Slow
          test_e3_all_as_predicted;
        Alcotest.test_case "E6 as predicted (Lemmas 1-2)" `Quick
          test_e6_all_as_predicted;
        Alcotest.test_case "E8 as predicted (Sec.6)" `Quick
          test_e8_all_as_predicted;
        Alcotest.test_case "tables render" `Quick test_tables_render;
      ] );
  ]
