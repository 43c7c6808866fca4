open Nvm

(* The permutation action on a value: π permutes the entries of every
   pid-indexed vector (recursively) and fixes everything else.  A
   vector is a length-n tuple whose entries all share one structural
   skeleton (constructor shape, not values) — see [skel].  Every digest
   below is defined against that action; the .mli explains why
   over-approximating vector-ness is safe. *)

(* Structural skeleton: constructor tags only, so [Bool true] and
   [Bool false] agree while [Int _] and [Tup _] differ.  Because the
   permutation action only ever permutes entries that share a skeleton,
   skeletons — and with them the vector classification — are invariant
   under the action, which is what lets [shape]/[slice] commute with
   it.  Without the skeleton check a 2-tuple like Algorithm 2's
   C = (value, flip-vector) would collide with a 2-process pid-vector
   and be sliced apart. *)
let rec skel ~n v =
  match (v : Value.t) with
  | Value.Unit -> 1
  | Value.Bool _ -> 2
  | Value.Int _ -> 3
  | Value.Str _ -> 4
  | Value.Bot -> 5
  | Value.Tup a when is_vec ~n a -> Value.mix 7 (skel ~n a.(0))
  | Value.Tup a ->
      let h = ref 11 in
      for i = 0 to Array.length a - 1 do
        h := Value.mix !h (skel ~n a.(i))
      done;
      !h

and is_vec ~n a =
  Array.length a = n && (n = 0 || same_skel ~n a (skel ~n a.(0)) 1)

(* do entries [i..] all have skeleton [k0]? *)
and same_skel ~n a k0 i =
  i >= Array.length a || (skel ~n a.(i) = k0 && same_skel ~n a k0 (i + 1))

(* is [v] fixed by the transposition (p q)? *)
let rec swap_ok ~n ~p ~q v =
  match (v : Value.t) with
  | Value.Tup a ->
      (if is_vec ~n a then Value.equal a.(p) a.(q) else true)
      && Array.for_all (swap_ok ~n ~p ~q) a
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Bot -> true

let swap_invariant ~n mem p q =
  if p = q then invalid_arg "Sym.swap_invariant: p = q";
  let ok = ref true in
  let privs_p = ref [] and privs_q = ref [] in
  for i = 0 to Mem.n_locs mem - 1 do
    let loc = Mem.loc_by_id mem i in
    let v = Mem.read mem loc in
    (match loc.Loc.kind with
    | Loc.Private k when k = p -> privs_p := v :: !privs_p
    | Loc.Private k when k = q -> privs_q := v :: !privs_q
    | Loc.Private _ -> ()
    | Loc.Shared -> if not (swap_ok ~n ~p ~q v) then ok := false);
    (* nested vectors inside private cells must be fixed too *)
    (match loc.Loc.kind with
    | Loc.Private k when k = p || k = q ->
        if not (swap_ok ~n ~p ~q v) then ok := false
    | _ -> ())
  done;
  !ok
  && List.length !privs_p = List.length !privs_q
  && List.for_all2 Value.equal (List.rev !privs_p) (List.rev !privs_q)

(* [shape] digests the pid-independent part of a value (vectors
   contribute only a marker and their common skeleton), [slice ~pid]
   the view of one process (each vector contributes only its pid-th
   entry).  Both commute with the permutation action:
   shape (π v) = shape v  and  slice ~pid:(π p) (π v) = slice ~pid:p v,
   by induction on the value, using that π preserves skeletons and so
   the vector classification. *)
let rec shape ~n ~seed v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a -> Value.mix seed (Value.mix 0x5eed7 (skel ~n v))
  | Value.Tup a ->
      let h = ref (Value.mix seed 0x7ab1e) in
      for i = 0 to Array.length a - 1 do
        h := Value.mix !h (shape ~n ~seed:(seed + i) a.(i))
      done;
      !h
  | v -> Value.hash_seeded seed v

and slice ~n ~pid ~seed v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a ->
      Value.mix 0x511ce
        (Value.mix (shape ~n ~seed a.(pid)) (slice ~n ~pid ~seed a.(pid)))
  | Value.Tup a ->
      let h = ref (Value.mix seed 0x7ab1e) in
      for i = 0 to Array.length a - 1 do
        h := Value.mix !h (slice ~n ~pid ~seed:(seed + i) a.(i))
      done;
      !h
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Bot -> 0

(* One process's view of a value: the pid-independent shape plus that
   process's slice.  Equivariant under the action —
   [self_key ~pid:(π p) (π v) = self_key ~pid:p v] — so it can rank
   processes π-consistently before any permutation is known. *)
let self_key ~n ~pid ~seed v =
  Value.mix (shape ~n ~seed v) (slice ~n ~pid ~seed v)

(* Digest of a value under an explicit relabeling: pid-indexed vectors
   contribute their entries in canonical rank order — entry [inv.(r)]
   at position [r] — instead of pid order, so two values that are
   images of each other under the permutation digest equally when
   [inv] carries the matching canonical orders.  Everything else is
   hashed as [Value.hash_seeded] does. *)
let rec hash_perm ~n ~inv ~seed v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a ->
      let h = ref (Value.mix seed 0x9ec70) in
      for r = 0 to n - 1 do
        h := Value.mix !h (hash_perm ~n ~inv ~seed a.(inv.(r)))
      done;
      !h
  | Value.Tup a ->
      let h = ref (Value.mix seed 0x7ab1e) in
      for i = 0 to Array.length a - 1 do
        h := Value.mix !h (hash_perm ~n ~inv ~seed:(seed + i) a.(i))
      done;
      !h
  | v -> Value.hash_seeded seed v

(* one fingerprint half from one seed, over the shared cells only (the
   paper's memory-equivalence ignores private NVM) *)
let half ~n ~seed mem =
  let views = Array.make n (seed lxor 0x1e3779b97f4a7c15) in
  let global = ref seed in
  let shared_ix = ref 0 in
  for i = 0 to Mem.n_locs mem - 1 do
    let loc = Mem.loc_by_id mem i in
    if Loc.is_shared loc then begin
      let v = Mem.read mem loc in
      let tag = !shared_ix in
      incr shared_ix;
      global := Value.mix !global (Value.mix tag (shape ~n ~seed v));
      for p = 0 to n - 1 do
        views.(p) <-
          Value.mix views.(p) (Value.mix tag (slice ~n ~pid:p ~seed v))
      done
    end
  done;
  (* commutative fold over the per-process views: sort, then chain *)
  Array.sort compare views;
  for p = 0 to n - 1 do
    global := Value.mix !global views.(p)
  done;
  !global

let canonical_fingerprint_shared ~n mem =
  (half ~n ~seed:1 mem, half ~n ~seed:2 mem)

(* ------------------------------------------------------------------ *)
(* Orbit sizes.

   The stabiliser of a shared configuration under the S_N action is
   exactly the Young subgroup of the partition of pids into classes
   with pairwise-equal "columns" (the tuple of p-th entries over every
   shared vector, recursively): a permutation fixes every vector iff it
   permutes pids only within such classes.  Column equality of p and q
   is precisely [swap_ok] over all shared cells, and it is transitive,
   so |orbit| = N! / prod(class sizes!), computed exactly. *)

let rec fact k = if k <= 1 then 1 else k * fact (k - 1)

let orbit_size_shared ~n mem =
  if n > 20 then invalid_arg "Sym.orbit_size: N! overflows past N = 20";
  let same p q =
    let ok = ref true in
    (try
       for i = 0 to Mem.n_locs mem - 1 do
         let loc = Mem.loc_by_id mem i in
         if Loc.is_shared loc && not (swap_ok ~n ~p ~q (Mem.read mem loc))
         then begin
           ok := false;
           raise Exit
         end
       done
     with Exit -> ());
    !ok
  in
  let rep = Array.make n (-1) in
  let sizes = Array.make n 0 in
  for p = 0 to n - 1 do
    let c = ref (-1) in
    (try
       for q = 0 to p - 1 do
         if rep.(q) = q && same p q then begin
           c := q;
           raise Exit
         end
       done
     with Exit -> ());
    if !c < 0 then begin
      rep.(p) <- p;
      sizes.(p) <- 1
    end
    else begin
      rep.(p) <- !c;
      sizes.(!c) <- sizes.(!c) + 1
    end
  done;
  let denom = ref 1 in
  for p = 0 to n - 1 do
    if rep.(p) = p then denom := !denom * fact sizes.(p)
  done;
  fact n / !denom

(* the action of one permutation on a value: entry r of a vector comes
   from entry [perm.(r)] (the direction is irrelevant to the callers —
   they quantify over all of S_N) *)
let rec permute ~n ~perm v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a ->
      Value.Tup (Array.init n (fun r -> permute ~n ~perm a.(perm.(r))))
  | Value.Tup a -> Value.Tup (Array.map (permute ~n ~perm) a)
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Bot -> v

let related_shared ~n ca cb =
  let shared cells =
    Array.to_list cells |> List.filter (fun ((l : Loc.t), _) -> Loc.is_shared l)
  in
  let sa = shared ca and sb = shared cb in
  List.length sa = List.length sb
  && List.for_all2 (fun ((la : Loc.t), _) ((lb : Loc.t), _) -> la.Loc.id = lb.Loc.id) sa sb
  &&
  (* try every permutation of 0..n-1 (audit/test path: n is tiny) *)
  let perm = Array.make n (-1) in
  let used = Array.make n false in
  let rec go r =
    if r = n then
      List.for_all2
        (fun (_, va) (_, vb) -> Value.equal (permute ~n ~perm va) vb)
        sa sb
    else
      let rec try_p p =
        p < n
        && ((not used.(p))
            && begin
                 perm.(r) <- p;
                 used.(p) <- true;
                 let ok = go (r + 1) in
                 used.(p) <- false;
                 ok
               end
           || try_p (p + 1))
      in
      try_p 0
  in
  go 0
