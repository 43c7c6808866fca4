(* Cross-validation of the linearizability checker: a brute-force
   reference checker (enumerate every subset of pending operations and
   every real-time-consistent permutation) must agree with Lin_check's
   memoized search on every history — both genuine histories produced by
   the driver and randomly corrupted ones. *)

open Nvm
open History
open Sched

let i n = Value.Int n

type rkind = Must of Value.t | Must_not | May

type rop = {
  uid : int;
  op : Spec.op;
  inv : int;
  out : int option;
  kind : rkind;
}

let analyze events =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun idx e ->
      match (e : Event.t) with
      | Event.Crash -> ()
      | Event.Inv { uid; op; _ } ->
          Hashtbl.replace tbl uid { uid; op; inv = idx; out = None; kind = May };
          order := uid :: !order
      | Event.Ret { uid; v; _ } | Event.Rec_ret { uid; v; _ } ->
          let r = Hashtbl.find tbl uid in
          Hashtbl.replace tbl uid { r with out = Some idx; kind = Must v }
      | Event.Rec_fail { uid; _ } ->
          let r = Hashtbl.find tbl uid in
          Hashtbl.replace tbl uid { r with out = Some idx; kind = Must_not })
    events;
  List.rev_map (Hashtbl.find tbl) !order

(* all subsets of a list *)
let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun sub -> x :: sub) s

let reference_check (spec : Spec.t) events =
  let records = analyze events in
  let musts = List.filter (fun r -> match r.kind with Must _ -> true | _ -> false) records in
  let mays = List.filter (fun r -> r.kind = May) records in
  let precedes a b =
    match a.out with Some o -> o < b.inv | None -> false
  in
  (* try every subset of pending ops *)
  List.exists
    (fun included_mays ->
      let pool = musts @ included_mays in
      (* enumerate linear extensions of the real-time partial order *)
      let rec extend remaining state =
        match remaining with
        | [] -> true
        | _ ->
            List.exists
              (fun r ->
                (* minimal: nothing else in [remaining] precedes r *)
                if List.exists (fun r' -> r'.uid <> r.uid && precedes r' r) remaining
                then false
                else
                  let state', resp = spec.Spec.step state r.op in
                  let ok =
                    match r.kind with
                    | Must v -> Value.equal resp v
                    | May -> true
                    | Must_not -> assert false
                  in
                  ok
                  && extend
                       (List.filter (fun r' -> r'.uid <> r.uid) remaining)
                       state')
              remaining
      in
      extend pool spec.Spec.init)
    (subsets mays)

let agree spec events =
  let reference = reference_check spec events in
  let fast = Lin_check.is_ok (Lin_check.check_with `Batch spec events) in
  if reference <> fast then
    Alcotest.failf "checkers disagree (reference=%b, lin_check=%b) on:@.%a"
      reference fast Event.pp_history events

(* genuine histories from short torture runs *)
let small_history ~seed mk workloads =
  let _, res = Test_support.run_one ~seed ~max_steps:20_000 mk workloads in
  res.Driver.history

let test_agree_on_genuine_histories () =
  for seed = 1 to 120 do
    let workloads =
      Workload.register (Dtc_util.Prng.create seed) ~procs:2 ~ops_per_proc:2
        ~values:2
    in
    agree (Spec.register (i 0))
      (small_history ~seed (Test_support.mk_drw ~n:2) workloads)
  done;
  for seed = 1 to 120 do
    let workloads =
      Workload.cas (Dtc_util.Prng.create (500 + seed)) ~procs:2 ~ops_per_proc:2
        ~values:2
    in
    agree (Spec.cas_cell (i 0))
      (small_history ~seed (Test_support.mk_dcas ~n:2) workloads)
  done

(* corrupt one response so violating histories are also compared *)
let corrupt prng events =
  let ret_positions =
    List.filteri (fun _ e -> match e with Event.Ret _ -> true | _ -> false) events
    |> List.length
  in
  if ret_positions = 0 then events
  else begin
    let target = Dtc_util.Prng.int prng ret_positions in
    let seen = ref (-1) in
    List.map
      (fun e ->
        match (e : Event.t) with
        | Event.Ret { pid; uid; _ } ->
            incr seen;
            if !seen = target then
              Event.Ret { pid; uid; v = i (Dtc_util.Prng.int prng 4) }
            else e
        | e -> e)
      events
  end

let test_agree_on_corrupted_histories () =
  for seed = 1 to 150 do
    let prng = Dtc_util.Prng.create (9_000 + seed) in
    let workloads =
      Workload.register (Dtc_util.Prng.split prng) ~procs:2 ~ops_per_proc:2
        ~values:2
    in
    let history =
      small_history ~seed (Test_support.mk_drw ~n:2) workloads
    in
    agree (Spec.register (i 0)) (corrupt prng history)
  done

let test_reference_sanity () =
  (* the reference itself behaves on the canonical cases *)
  let inv pid uid op = Event.Inv { pid; uid; op } in
  let ret pid uid v = Event.Ret { pid; uid; v } in
  let reg = Spec.register (i 0) in
  Alcotest.(check bool) "sequential ok" true
    (reference_check reg
       [ inv 0 0 (Spec.write_op (i 5)); ret 0 0 Spec.ack; inv 1 1 Spec.read_op; ret 1 1 (i 5) ]);
  Alcotest.(check bool) "wrong read rejected" false
    (reference_check reg
       [ inv 0 0 (Spec.write_op (i 5)); ret 0 0 Spec.ack; inv 1 1 Spec.read_op; ret 1 1 (i 7) ]);
  Alcotest.(check bool) "pending flexible" true
    (reference_check reg
       [ inv 0 0 (Spec.write_op (i 9)); inv 1 1 Spec.read_op; ret 1 1 (i 0) ])

let suites =
  [
    ( "history.reference",
      [
        Alcotest.test_case "reference sanity" `Quick test_reference_sanity;
        Alcotest.test_case "agrees on genuine histories" `Slow
          test_agree_on_genuine_histories;
        Alcotest.test_case "agrees on corrupted histories" `Slow
          test_agree_on_corrupted_histories;
      ] );
  ]
