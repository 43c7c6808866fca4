type t = {
  backing : Mem.t;
  dirty : (int, Loc.t * Value.t) Hashtbl.t; (* loc id -> newest unpersisted value *)
}

let create backing = { backing; dirty = Hashtbl.create 64 }


let read c (loc : Loc.t) =
  match Hashtbl.find_opt c.dirty loc.Loc.id with
  | Some (_, v) -> v
  | None -> Mem.read c.backing loc

let write c (loc : Loc.t) v = Hashtbl.replace c.dirty loc.Loc.id (loc, v)

let cas c loc expected desired =
  let cur = read c loc in
  if Value.equal cur expected then (
    write c loc desired;
    true)
  else false

let faa c loc delta =
  let old = Value.to_int (read c loc) in
  write c loc (Value.Int (old + delta));
  old

let persist c (loc : Loc.t) =
  match Hashtbl.find_opt c.dirty loc.Loc.id with
  | Some (_, v) ->
      Mem.write c.backing loc v;
      Hashtbl.remove c.dirty loc.Loc.id
  | None -> ()

let dirty_locs c =
  Hashtbl.fold (fun _ (loc, _) acc -> loc :: acc) c.dirty []
  |> List.sort (fun (a : Loc.t) (b : Loc.t) -> Int.compare a.Loc.id b.Loc.id)

let persist_all c = List.iter (persist c) (dirty_locs c)

let crash c ~keep =
  List.iter (fun loc -> if keep loc then persist c loc) (dirty_locs c);
  Hashtbl.reset c.dirty

(* Dirty lines are always visited in [dirty_locs] (allocation-id) order
   so that the PRNG consumption — and hence the post-crash NVM image —
   is a pure function of (fault, prng state, dirty set). *)
let crash_faulted c ~fault ~prng =
  let open Dtc_util in
  (match fault with
  | Fault_model.Atomic -> List.iter (persist c) (dirty_locs c)
  | Fault_model.Drop { keep_prob } ->
      List.iter
        (fun loc ->
          if keep_prob >= 1.0 || Prng.float prng < keep_prob then persist c loc)
        (dirty_locs c)
  | Fault_model.Torn { granularity } ->
      List.iter
        (fun (loc : Loc.t) ->
          match Hashtbl.find_opt c.dirty loc.Loc.id with
          | None -> ()
          | Some (_, nv) -> (
              let ov = Mem.read c.backing loc in
              match (ov, nv) with
              | Value.Tup olds, Value.Tup news
                when Array.length olds = Array.length news ->
                  let k = Array.length news in
                  let out = Array.copy olds in
                  let i = ref 0 in
                  while !i < k do
                    let stop = min k (!i + granularity) in
                    if Prng.bool prng then
                      for j = !i to stop - 1 do
                        out.(j) <- news.(j)
                      done;
                    i := stop
                  done;
                  Mem.write c.backing loc (Value.Tup out)
              | _ -> if Prng.bool prng then Mem.write c.backing loc nv))
        (dirty_locs c)
  | Fault_model.Reorder ->
      let locs = Array.of_list (dirty_locs c) in
      Prng.shuffle prng locs;
      let cut = Prng.int prng (Array.length locs + 1) in
      for i = 0 to cut - 1 do
        persist c locs.(i)
      done);
  Hashtbl.reset c.dirty

let entries c =
  Hashtbl.fold (fun _ e acc -> e :: acc) c.dirty []
  |> List.sort (fun ((a : Loc.t), _) ((b : Loc.t), _) ->
         Int.compare a.Loc.id b.Loc.id)

let restore_entries c entries =
  Hashtbl.reset c.dirty;
  List.iter
    (fun ((loc : Loc.t), v) -> Hashtbl.replace c.dirty loc.Loc.id (loc, v))
    entries
