(* The one baseline model (see bench_row.mli and docs/TORTURE.md). *)

open Tiny_json

let schema = "detectable-bench/rows-v1"
let suites = [ "torture"; "modelcheck"; "lincheck"; "lowerbound" ]
let tolerance = 10.0

type row = {
  id : string;
  params : (string * t) list;
  counters : (string * t) list;
  metrics : (string * float) list;
  min : (string * float) list;
  max : (string * float) list;
  recheck : bool;
}

let spec ?(min = []) ?(max = []) ?(recheck = true) id params =
  { id; params; counters = []; metrics = []; min; max; recheck }

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* ------------------------------------------------------------------ *)
(* writer *)

(* six decimals, trailing zeros trimmed: exact for every declared gate *)
let num f =
  let s = Printf.sprintf "%.6f" f in
  let n = ref (String.length s) in
  while s.[!n - 1] = '0' do decr n done;
  if s.[!n - 1] = '.' then decr n;
  String.sub s 0 !n

let rec value = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Num f -> num f
  | Str s -> Printf.sprintf "%S" s
  | List l -> "[ " ^ String.concat ", " (List.map value l) ^ " ]"
  | Obj kvs ->
      "{ "
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (value v)) kvs)
      ^ " }"

let floats kvs = List.map (fun (k, f) -> (k, Num f)) kvs

let row_json r =
  let section name kvs =
    if kvs = [] then [] else [ Printf.sprintf "%S: %s" name (value (Obj kvs)) ]
  in
  let fields =
    (Printf.sprintf "\"id\": %S" r.id :: section "params" r.params)
    @ section "counters" r.counters
    @ section "metrics" (floats r.metrics)
    @ section "min" (floats r.min)
    @ section "max" (floats r.max)
    @ if r.recheck then [] else [ "\"recheck\": false" ]
  in
  "    { " ^ String.concat ",\n      " fields ^ " }"

let to_json ~suite rows =
  Printf.sprintf "{\n  \"schema\": %S,\n  \"suite\": %S,\n  \"rows\": [\n%s\n  ]\n}\n"
    schema suite
    (String.concat ",\n" (List.map row_json rows))

(* ------------------------------------------------------------------ *)
(* reader *)

let row_of_json j =
  let id = match member "id" j with Str s -> s | _ -> fail "row id: expected a string" in
  let what k = Printf.sprintf "row %S: %s" id k in
  let section ~required k =
    if not (mem k j) then if required then fail "%s missing" (what k) else []
    else match member k j with Obj kvs -> kvs | _ -> fail "%s: expected an object" (what k)
  in
  let numbers k =
    List.map
      (function
        | name, Int n -> (name, float_of_int n)
        | name, Num f -> (name, f)
        | name, _ -> fail "%s.%s: expected a number" (what k) name)
      (section ~required:false k)
  in
  let counters =
    List.map
      (function
        | (_, (Int _ | Bool _)) as c -> c
        | name, _ -> fail "%s.%s: expected an int or a bool" (what "counters") name)
      (section ~required:true "counters")
  in
  let metrics = numbers "metrics" in
  let gates k =
    let g = numbers k in
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name metrics) then
          fail "%s.%s gates no recorded metric" (what k) name)
      g;
    g
  in
  let recheck =
    if not (mem "recheck" j) then true
    else match member "recheck" j with Bool b -> b | _ -> fail "%s: expected a bool" (what "recheck")
  in
  {
    id;
    params = section ~required:true "params";
    counters;
    metrics;
    min = gates "min";
    max = gates "max";
    recheck;
  }

let of_json j =
  (match member "schema" j with
  | Str s when s = schema -> ()
  | Str s -> fail "unknown schema %S" s
  | _ -> fail "schema: expected a string");
  let suite = get_str (member "suite" j) in
  if not (List.mem suite suites) then fail "unknown suite %S" suite;
  let rows =
    match get_list (member "rows" j) with
    | [] -> fail "\"rows\" must be a non-empty array"
    | l -> List.map row_of_json l
  in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun r ->
      if Hashtbl.mem seen r.id then fail "duplicate row id %S" r.id;
      Hashtbl.add seen r.id ())
    rows;
  (suite, rows)

(* ------------------------------------------------------------------ *)
(* one row against its re-run *)

let show = function Int n -> string_of_int n | Bool b -> string_of_bool b | v -> value v

let check_row ~recorded ~fresh =
  let metric ~default k = Option.value (List.assoc_opt k fresh.metrics) ~default in
  let mismatches =
    List.filter_map
      (fun (k, want) ->
        match List.assoc_opt k fresh.counters with
        | Some got when got = want -> None
        | got ->
            Some
              (Printf.sprintf "DETERMINISM MISMATCH %s: recorded %s, fresh %s" k
                 (show want)
                 (match got with Some g -> show g | None -> "missing")))
      recorded.counters
  in
  (* allocation is a function of the code, not the machine: no tolerance *)
  let ceilings =
    List.filter_map
      (fun (k, ceiling) ->
        let v = metric ~default:infinity k in
        if v <= ceiling then None
        else
          Some
            (Printf.sprintf "ALLOC REGRESSION %s: %s over the recorded ceiling %s" k
               (num v) (num ceiling)))
      recorded.max
  in
  let floors =
    List.filter_map
      (fun (k, floor) ->
        let v = metric ~default:0.0 k in
        if v *. tolerance >= floor then None
        else
          Some
            (Printf.sprintf
               "THROUGHPUT GATE %s: %s under the recorded floor %s even at \
                tolerance %gx"
               k (num v) (num floor) tolerance))
      recorded.min
  in
  let perf =
    List.filter_map
      (fun (k, base) ->
        let v = metric ~default:0.0 k in
        if (not (String.ends_with ~suffix:"_per_sec" k)) || v *. tolerance >= base
        then None
        else
          Some
            (Printf.sprintf "PERF REGRESSION %s: %s vs recorded %s (tolerance %gx)"
               k (num v) (num base) tolerance))
      recorded.metrics
  in
  mismatches @ ceilings @ floors @ perf

(* ------------------------------------------------------------------ *)
(* cross-row invariants, each written once *)

let lookup what kvs r k =
  match List.assoc_opt k kvs with
  | Some v -> v
  | None -> fail "row %S: missing %s %S" r.id what k

let int r k =
  match lookup "counter" r.counters r k with
  | Int n -> n
  | _ -> fail "row %S: counter %S is not an int" r.id k

let bool r k =
  match lookup "counter" r.counters r k with
  | Bool b -> b
  | _ -> fail "row %S: counter %S is not a bool" r.id k

let param r k = lookup "param" r.params r k

(* rows that run several reduction modes name them in "reductions" and
   prefix each mode's counters with it, e.g. "dpor+sym-memo.configs" *)
let modes r = List.map get_str (get_list (param r "reductions"))
let per_mode r m k = int r (m ^ "." ^ k)

(* The first mode of a reduction row is the unreduced search, the last
   the strongest.  Reduction prunes interleavings, never the bug: every
   mode must agree on whether a violation exists (a reduced search keeps
   one representative per class, so the raw counts may shrink), no mode
   may explore more executions than the unreduced one, and the
   unreduced/strongest node ratio must clear "min_node_reduction". *)
let reductions rows =
  List.concat_map
    (fun r ->
      match if List.mem_assoc "reductions" r.params then modes r else [] with
      | [] -> []
      | base :: _ as ms ->
        let strongest = List.nth ms (List.length ms - 1) in
        let get = per_mode r in
        let violates m = get m "total_violations" > 0 in
        let ratio =
          float_of_int (get base "nodes") /. float_of_int (max 1 (get strongest "nodes"))
        in
        let gate = get_num (param r "min_node_reduction") in
        List.concat_map
          (fun m ->
            (if violates m = violates base then []
             else
               [
                 Printf.sprintf
                   "%s REDUCTION PARITY: %s records %d violations, %s records %d"
                   r.id m (get m "total_violations") base
                   (get base "total_violations");
               ])
            @
            if get m "executions" <= get base "executions" then []
            else
              [
                Printf.sprintf "%s REDUCTION BLOWUP: %s explores %d executions, %s %d"
                  r.id m (get m "executions") base (get base "executions");
              ])
          ms
        @
        if ratio >= gate then []
        else
          [
            Printf.sprintf
              "%s REDUCTION REGRESSION: %.2fx node reduction (%s -> %s) under \
               min_node_reduction %.2fx"
              r.id ratio base strongest gate;
          ])
    rows

(* Theorem 1: N processes reach at least 2^(N-1) configurations.  Only
   "dpor" and "dpor+sym-memo" count sound lower bounds on the reachable
   set, so only they must certify it (from N = 4, unless the node budget
   capped them: a capped count is absence of evidence).  The evidence
   obligations keep the committed contrast honest: the unreduced search
   must miss the bound somewhere once it runs at N >= 5, and plain
   "dpor+sym" (which counts unweighted orbit representatives) must miss
   it somewhere. *)
let certifying m = m = "dpor" || m = "dpor+sym-memo"

let lowerbound rows =
  let runs = List.concat_map (fun r -> List.map (fun m -> (r, m)) (modes r)) rows in
  let n r = get_int (param r "n") in
  let meets (r, m) = bool r (m ^ ".meets_bound") in
  let arithmetic =
    List.filter_map
      (fun r ->
        if int r "bound" = 1 lsl (n r - 1) then None
        else
          Some
            (Printf.sprintf "%s BOUND ARITHMETIC: bound %d is not 2^(N-1) = %d" r.id
               (int r "bound")
               (1 lsl (n r - 1))))
      rows
  in
  let per_run =
    List.concat_map
      (fun ((r, m) as run) ->
        let configs = per_mode r m "configs" and bound = int r "bound" in
        (if meets run = (configs >= bound) then []
         else
           [
             Printf.sprintf
               "%s %s RECORD INCONSISTENT: meets_bound %b but %d configs vs bound %d"
               r.id m (meets run) configs bound;
           ])
        @
        if certifying m && n r >= 4 && (not (bool r (m ^ ".capped"))) && configs < bound
        then
          [
            Printf.sprintf "%s %s BOUND VIOLATION: %d configs < 2^(N-1) = %d" r.id m
              configs bound;
          ]
        else [])
      runs
  in
  let evidence mode ~from_n =
    let candidates = List.filter (fun (r, m) -> m = mode && n r >= from_n) runs in
    if candidates = [] || List.exists (fun run -> not (meets run)) candidates then []
    else
      [
        Printf.sprintf
          "EVIDENCE MISSING: no %s row (N >= %d) misses the bound, so the \
           committed contrast is gone"
          mode from_n;
      ]
  in
  arithmetic @ per_run @ evidence "none" ~from_n:5 @ evidence "dpor+sym" ~from_n:2

let invariants suite rows =
  match suite with
  | "modelcheck" -> reductions rows
  | "lowerbound" -> lowerbound rows
  | _ -> []
