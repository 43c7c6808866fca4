open Nvm

type op = { name : string; args : Value.t array }

let op name args = { name; args = Array.of_list args }

let pp_op fmt o =
  if Array.length o.args = 0 then Format.fprintf fmt "%s" o.name
  else
    Format.fprintf fmt "%s(%a)" o.name
      (Format.pp_print_array
         ~pp_sep:(fun f () -> Format.fprintf f ", ")
         Value.pp)
      o.args

type t = {
  obj_name : string;
  init : Value.t;
  step : Value.t -> op -> Value.t * Value.t;
}

let final_state spec ops =
  List.fold_left (fun state o -> fst (spec.step state o)) spec.init ops

let ack = Value.Str "ack"

let bad_op obj o =
  invalid_arg
    (Format.asprintf "Spec(%s): unsupported operation %a" obj pp_op o)

let register v0 =
  {
    obj_name = "register";
    init = v0;
    step =
      (fun state o ->
        match (o.name, o.args) with
        | "read", [||] -> (state, state)
        | "write", [| v |] -> (v, ack)
        | _ -> bad_op "register" o);
  }

let cas_cell v0 =
  {
    obj_name = "cas";
    init = v0;
    step =
      (fun state o ->
        match (o.name, o.args) with
        | "read", [||] -> (state, state)
        | "cas", [| old_v; new_v |] ->
            if Value.equal state old_v then (new_v, Value.Bool true)
            else (state, Value.Bool false)
        | _ -> bad_op "cas" o);
  }

let counter v0 =
  {
    obj_name = "counter";
    init = Value.Int v0;
    step =
      (fun state o ->
        match (o.name, o.args) with
        | "read", [||] -> (state, state)
        | "inc", [||] -> (Value.Int (Value.to_int state + 1), ack)
        | _ -> bad_op "counter" o);
  }

let bounded_counter ~lo ~hi v0 =
  if not (lo <= v0 && v0 <= hi) then invalid_arg "Spec.bounded_counter";
  {
    obj_name = "bounded_counter";
    init = Value.Int v0;
    step =
      (fun state o ->
        match (o.name, o.args) with
        | "read", [||] -> (state, state)
        | "inc", [||] -> (Value.Int (min hi (Value.to_int state + 1)), ack)
        | _ -> bad_op "bounded_counter" o);
  }

let faa_cell v0 =
  {
    obj_name = "faa";
    init = Value.Int v0;
    step =
      (fun state o ->
        match (o.name, o.args) with
        | "read", [||] -> (state, state)
        | "faa", [| Value.Int d |] -> (Value.Int (Value.to_int state + d), state)
        | _ -> bad_op "faa" o);
  }

let max_register v0 =
  {
    obj_name = "max_register";
    init = Value.Int v0;
    step =
      (fun state o ->
        match (o.name, o.args) with
        | "read", [||] -> (state, state)
        | "write_max", [| Value.Int v |] ->
            (Value.Int (max (Value.to_int state) v), ack)
        | _ -> bad_op "max_register" o);
  }

let resettable_tas () =
  {
    obj_name = "tas";
    init = Value.Bool false;
    step =
      (fun state o ->
        match (o.name, o.args) with
        | "read", [||] -> (state, state)
        | "tas", [||] -> (Value.Bool true, state)
        | "reset", [||] -> (Value.Bool false, ack)
        | _ -> bad_op "tas" o);
  }

let swap_cell v0 =
  {
    obj_name = "swap";
    init = v0;
    step =
      (fun state o ->
        match (o.name, o.args) with
        | "read", [||] -> (state, state)
        | "swap", [| v |] -> (v, state)
        | _ -> bad_op "swap" o);
  }

let fifo_queue () =
  {
    obj_name = "queue";
    init = Value.Tup [||];
    step =
      (fun state o ->
        let elems = Value.to_tup state in
        match (o.name, o.args) with
        | "enq", [| v |] -> (Value.Tup (Array.append elems [| v |]), ack)
        | "deq", [||] ->
            if Array.length elems = 0 then (state, Value.Str "empty")
            else
              ( Value.Tup (Array.sub elems 1 (Array.length elems - 1)),
                elems.(0) )
        | _ -> bad_op "queue" o);
  }

let read_op = op "read" []
let tas_op = op "tas" []
let reset_op = op "reset" []
let swap_op v = op "swap" [ v ]
let write_op v = op "write" [ v ]
let cas_op old_v new_v = op "cas" [ old_v; new_v ]
let inc_op = op "inc" []
let faa_op d = op "faa" [ Value.Int d ]
let write_max_op v = op "write_max" [ Value.Int v ]
let enq_op v = op "enq" [ v ]
let deq_op = op "deq" []
