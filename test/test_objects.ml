(* Tests for the object catalog (lib/objects): the names the CLI and the
   benchmark select objects by, and that every entry builds and runs
   under both memory models. *)

open Runtime
open History
open Sched

let names =
  [
    "drw"; "dcas"; "dmax"; "dcounter"; "dfaa"; "dswap"; "dtas"; "dbounded";
    "dqueue"; "dprotected"; "urw"; "ucas"; "broken-rw-refail";
    "broken-rw-reexec"; "broken-drw-no-toggle"; "broken-dcas-no-vec";
  ]

let test_names () =
  Alcotest.(check (list string))
    "16 names, in -o order" names
    (List.map Objects.name Objects.all);
  Alcotest.(check int)
    "names unique" 16
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun name ->
      Alcotest.(check string) "find" name (Objects.name (Objects.find name)))
    names

(* every entry builds for n = 1..3 on both machines, and a crash-free
   solo run of two operations from its own workload family linearizes *)
let test_builds_and_runs () =
  List.iter
    (fun obj ->
      List.iter
        (fun (model, persist) ->
          for n = 1 to 3 do
            let ctx =
              Printf.sprintf "%s, n=%d, persist=%b" (Objects.name obj) n persist
            in
            let machine, inst = Objects.mk ~model ~persist obj ~n () in
            let workloads =
              Objects.workloads obj (Dtc_util.Prng.create n) ~procs:1
                ~ops_per_proc:2
            in
            let res = Driver.run machine inst ~workloads Driver.default_config in
            Alcotest.(check int) (ctx ^ ": two returns") 2
              (List.length
                 (List.filter
                    (function Event.Ret _ -> true | _ -> false)
                    res.Driver.history));
            match Driver.check inst res with
            | Lin_check.Ok_linearizable _ -> ()
            | Lin_check.Violation m -> Alcotest.failf "%s: %s" ctx m
          done)
        [ (Machine.Private_cache, false); (Machine.Shared_cache, true) ])
    Objects.all

let test_rejections () =
  (match Objects.find "nope" with
  | _ -> Alcotest.fail "unknown name accepted"
  | exception Invalid_argument m ->
      let known = String.concat ", " names in
      let rec has i =
        i + String.length known <= String.length m
        && (String.sub m i (String.length known) = known || has (i + 1))
      in
      if not (has 0) then Alcotest.failf "%S does not list the known names" m);
  (* rejected as soon as ~n is applied, before any machine is built *)
  let constructor () = Objects.mk (Objects.find "drw") ~n:0 in
  match constructor () with
  | (_ : unit -> Machine.t * Obj_inst.t) -> Alcotest.fail "n = 0 accepted"
  | exception Invalid_argument _ -> ()

let test_machine_for () =
  let open Nvm.Fault_model in
  List.iter
    (fun (fault, expected) ->
      Alcotest.(check bool)
        (to_string fault) true
        (Objects.machine_for fault = expected))
    [
      (Atomic, (Machine.Private_cache, false));
      (Drop { keep_prob = 0.5 }, (Machine.Shared_cache, true));
      (Torn { granularity = 1 }, (Machine.Shared_cache, true));
      (Reorder, (Machine.Shared_cache, true));
    ]

let suites =
  [
    ( "objects.catalog",
      [
        Alcotest.test_case "names" `Quick test_names;
        Alcotest.test_case "every entry builds and runs solo" `Quick
          test_builds_and_runs;
        Alcotest.test_case "unknown name and n < 1 rejected" `Quick
          test_rejections;
        Alcotest.test_case "fault model -> machine" `Quick test_machine_for;
      ] );
  ]
