(* Tests for the sequential specifications. *)

open Nvm
open History

let v = Test_support.value_testable
let i n = Value.Int n

let test_register () =
  let spec = Spec.register (i 0) in
  Alcotest.(check (list Test_support.value_testable))
    "responses"
    [ i 0; Spec.ack; i 5; Spec.ack; i 2 ]
    (Oracle.run_spec spec
       [
         Spec.read_op;
         Spec.write_op (i 5);
         Spec.read_op;
         Spec.write_op (i 2);
         Spec.read_op;
       ])

let test_cas_cell () =
  let spec = Spec.cas_cell (i 0) in
  Alcotest.(check (list Test_support.value_testable))
    "responses"
    [ Value.Bool true; Value.Bool false; i 1; Value.Bool true ]
    (Oracle.run_spec spec
       [
         Spec.cas_op (i 0) (i 1);
         Spec.cas_op (i 0) (i 2);
         Spec.read_op;
         Spec.cas_op (i 1) (i 0);
       ])

let test_counter () =
  let spec = Spec.counter 0 in
  Alcotest.check v "final read" (i 3)
    (List.nth (Oracle.run_spec spec [ Spec.inc_op; Spec.inc_op; Spec.inc_op; Spec.read_op ]) 3)

let test_bounded_counter () =
  let spec = Spec.bounded_counter ~lo:0 ~hi:2 0 in
  Alcotest.check v "saturates" (i 2)
    (List.nth
       (Oracle.run_spec spec [ Spec.inc_op; Spec.inc_op; Spec.inc_op; Spec.read_op ])
       3);
  (match Spec.bounded_counter ~lo:0 ~hi:2 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "init out of range accepted")

let test_faa () =
  let spec = Spec.faa_cell 10 in
  Alcotest.(check (list Test_support.value_testable))
    "returns old" [ i 10; i 15; i 15 ]
    (Oracle.run_spec spec [ Spec.faa_op 5; Spec.faa_op 0; Spec.read_op ])

let test_max_register () =
  let spec = Spec.max_register 0 in
  Alcotest.(check (list Test_support.value_testable))
    "monotone"
    [ Spec.ack; i 5; Spec.ack; i 5; Spec.ack; i 9 ]
    (Oracle.run_spec spec
       [
         Spec.write_max_op 5;
         Spec.read_op;
         Spec.write_max_op 3;
         Spec.read_op;
         Spec.write_max_op 9;
         Spec.read_op;
       ])

let test_queue () =
  let spec = Spec.fifo_queue () in
  Alcotest.(check (list Test_support.value_testable))
    "fifo"
    [ Value.Str "empty"; Spec.ack; Spec.ack; i 1; i 2; Value.Str "empty" ]
    (Oracle.run_spec spec
       [
         Spec.deq_op;
         Spec.enq_op (i 1);
         Spec.enq_op (i 2);
         Spec.deq_op;
         Spec.deq_op;
         Spec.deq_op;
       ])

let test_unsupported_op () =
  let spec = Spec.register (i 0) in
  match Oracle.run_spec spec [ Spec.inc_op ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "register accepted inc"

(* Model-based property: the queue spec behaves like a functional list. *)
let prop_queue_vs_list_model =
  let gen =
    QCheck.list
      (QCheck.map
         (fun (b, x) -> if b then `Enq x else `Deq)
         QCheck.(pair bool (int_bound 20)))
  in
  QCheck.Test.make ~name:"queue spec = list model"
    ~count:Test_support.qcheck_count gen (fun cmds ->
      let spec = Spec.fifo_queue () in
      let rec go state model cmds =
        match cmds with
        | [] -> true
        | `Enq x :: rest ->
            let state', r = spec.Spec.step state (Spec.enq_op (i x)) in
            Value.equal r Spec.ack && go state' (model @ [ x ]) rest
        | `Deq :: rest -> (
            let state', r = spec.Spec.step state Spec.deq_op in
            match model with
            | [] -> Value.equal r (Value.Str "empty") && go state' [] rest
            | x :: model' -> Value.equal r (i x) && go state' model' rest)
      in
      go spec.Spec.init [] cmds)

(* Model-based property: register returns the last written value. *)
let prop_register_last_write =
  let gen = QCheck.list QCheck.(option (int_bound 20)) in
  QCheck.Test.make ~name:"register returns last write"
    ~count:Test_support.qcheck_count gen (fun cmds ->
      let spec = Spec.register (i 0) in
      let rec go state last cmds =
        match cmds with
        | [] -> true
        | Some x :: rest ->
            let state', _ = spec.Spec.step state (Spec.write_op (i x)) in
            go state' x rest
        | None :: rest ->
            let state', r = spec.Spec.step state Spec.read_op in
            Value.equal r (i last) && go state' last rest
      in
      go spec.Spec.init 0 cmds)

(* Counter value equals the number of incs. *)
let prop_counter_counts =
  QCheck.Test.make ~name:"counter counts incs" ~count:Test_support.qcheck_count
    QCheck.(int_bound 50)
    (fun n ->
      let spec = Spec.counter 0 in
      let ops = List.init n (fun _ -> Spec.inc_op) @ [ Spec.read_op ] in
      Value.equal (List.nth (Oracle.run_spec spec ops) n) (i n))

(* Max register returns the max over writes. *)
let prop_max_register_max =
  QCheck.Test.make ~name:"max register returns the max"
    ~count:Test_support.qcheck_count
    QCheck.(list (int_bound 100))
    (fun xs ->
      let spec = Spec.max_register 0 in
      let ops = List.map Spec.write_max_op xs @ [ Spec.read_op ] in
      let expect = List.fold_left max 0 xs in
      Value.equal (List.nth (Oracle.run_spec spec ops) (List.length xs)) (i expect))

let test_op_equality () =
  Alcotest.(check bool) "equal ops" true
    (Test_support.equal_op (Spec.cas_op (i 1) (i 2)) (Spec.cas_op (i 1) (i 2)));
  Alcotest.(check bool) "different args" false
    (Test_support.equal_op (Spec.cas_op (i 1) (i 2)) (Spec.cas_op (i 1) (i 3)));
  Alcotest.(check bool) "different names" false
    (Test_support.equal_op Spec.read_op Spec.inc_op)

let suites =
  [
    ( "history.spec",
      [
        Alcotest.test_case "register" `Quick test_register;
        Alcotest.test_case "cas" `Quick test_cas_cell;
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "bounded counter" `Quick test_bounded_counter;
        Alcotest.test_case "faa" `Quick test_faa;
        Alcotest.test_case "max register" `Quick test_max_register;
        Alcotest.test_case "queue" `Quick test_queue;
        Alcotest.test_case "unsupported op" `Quick test_unsupported_op;
        Alcotest.test_case "op equality" `Quick test_op_equality;
        QCheck_alcotest.to_alcotest prop_queue_vs_list_model;
        QCheck_alcotest.to_alcotest prop_register_last_write;
        QCheck_alcotest.to_alcotest prop_counter_counts;
        QCheck_alcotest.to_alcotest prop_max_register_max;
      ] );
  ]
