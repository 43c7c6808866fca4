open Nvm

type mode = Fingerprint | Exact

(* Open-addressed set of fingerprint pairs over two flat int arrays.
   [add_live] runs at every DFS node of the explorer, and a Hashtbl
   keyed on [(int * int)] paid a pair allocation plus a polymorphic
   hash traversal per probe; here membership is two array reads per
   probe step and insertion allocates nothing.  The probe index mixes
   both halves, the slot stores both, so equality stays the full
   126-bit pair — no weakening of the collision guarantee. *)
module Pair_set = struct
  type t = {
    mutable ka : int array;  (* first halves; [empty] marks a free slot *)
    mutable kb : int array;
    mutable mask : int;  (* capacity - 1; capacity is a power of two *)
    mutable count : int;
  }

  (* Fingerprint halves range over all of [int], so one value must be
     sacrificed as the free-slot marker: a first half equal to [empty]
     is nudged up by one in [sanitize].  This merges pairs that differ
     only in that one bit of one half — a 2^-126 artefact, far below
     the scheme's own collision odds. *)
  let empty = min_int

  let sanitize fa = if fa = empty then empty + 1 else fa

  let create cap =
    {
      ka = Array.make cap empty;
      kb = Array.make cap 0;
      mask = cap - 1;
      count = 0;
    }

  (* slot holding [(fa, fb)], or the free slot where it would go *)
  let rec probe s fa fb i =
    let a = s.ka.(i) in
    if a = empty || (a = fa && s.kb.(i) = fb) then i
    else probe s fa fb ((i + 1) land s.mask)

  let grow s =
    let old_ka = s.ka and old_kb = s.kb in
    let cap = 2 * (s.mask + 1) in
    s.ka <- Array.make cap empty;
    s.kb <- Array.make cap 0;
    s.mask <- cap - 1;
    Array.iteri
      (fun i a ->
        if a <> empty then begin
          let b = old_kb.(i) in
          let j = probe s a b (Value.mix a b land s.mask) in
          s.ka.(j) <- a;
          s.kb.(j) <- b
        end)
      old_ka

  (* true iff the pair was new *)
  let add s fa fb =
    let fa = sanitize fa in
    if 2 * (s.count + 1) > s.mask + 1 then grow s;
    let i = probe s fa fb (Value.mix fa fb land s.mask) in
    if s.ka.(i) = empty then begin
      s.ka.(i) <- fa;
      s.kb.(i) <- fb;
      s.count <- s.count + 1;
      true
    end
    else false
end

type t = {
  mode : mode;
  canonical : int option;
      (* Some n: keys are full-S_N canonical fingerprints of the shared
         configuration and [cardinal] is orbit-size-weighted *)
  fps : Pair_set.t;
  (* Exact mode only: full snapshots bucketed by fingerprint, so a
     fingerprint collision between non-equivalent configurations is
     caught and counted instead of silently merging them.  Under a
     canonical set the bucket equality is orbit membership
     ({!Sym.related_shared}), so the audit checks exactly the quotient
     property: equal canonical fingerprints imply π-relatedness. *)
  exact : (int * int, Mem.snapshot list) Hashtbl.t;
  mutable collisions : int;
  mutable weighted : int;  (* canonical: running sum of orbit sizes *)
  (* canonical live-insertion guard: raw (per-pid) fingerprints already
     seen.  Canonicalising a configuration walks every cell once per
     process and computing its orbit weight is O(N^2) cell scans — far
     too hot for a per-DFS-node call — but the explorer revisits the
     same few raw configurations millions of times.  A raw repeat can
     neither open a new orbit nor change any weight, so [add_live] pays
     the canonical work only when the raw fingerprint is fresh: at most
     once per distinct raw configuration, of which there are orders of
     magnitude fewer than nodes. *)
  seen_raw : Pair_set.t;
}

let create ?(mode = Fingerprint) ?canonical () =
  (match canonical with
  | Some n when n < 1 || n > 20 ->
      invalid_arg "Config_set.create: canonical N out of range"
  | _ -> ());
  {
    mode;
    canonical;
    fps = Pair_set.create 1024;
    exact = Hashtbl.create (match mode with Exact -> 1024 | Fingerprint -> 1);
    collisions = 0;
    weighted = 0;
    seen_raw =
      Pair_set.create (match canonical with Some _ -> 1024 | None -> 2);
  }

let canonical set = set.canonical

let insert_fp_w set fa fb w =
  let fresh = Pair_set.add set.fps fa fb in
  if fresh then set.weighted <- set.weighted + w;
  fresh

(* snapshot-bucket equality: plain sets use memory-equivalence,
   canonical sets orbit membership *)
let snap_equiv set a b =
  match set.canonical with
  | None -> Mem.equal_shared a b
  | Some n ->
      Sym.related_shared ~n (Mem.snapshot_cells a) (Mem.snapshot_cells b)

(* [Exact]: the configuration's snapshot joins the bucket of its live
   digest [fp] unless an equivalent one is already there *)
let insert_exact set ((fa, fb) as fp) ~weight mem =
  let snap = Mem.snapshot mem in
  let bucket = try Hashtbl.find set.exact fp with Not_found -> [] in
  if List.exists (snap_equiv set snap) bucket then false
  else begin
    if bucket <> [] then set.collisions <- set.collisions + 1;
    Hashtbl.replace set.exact fp (snap :: bucket);
    (* a colliding configuration occupies no fresh pair-set slot, but
       its weight still counts toward the (audited) total *)
    ignore (Pair_set.add set.fps fa fb : bool);
    set.weighted <- set.weighted + weight;
    true
  end

let add_live set mem =
  let fa = Mem.live_shared_a mem and fb = Mem.live_shared_b mem in
  match (set.canonical, set.mode) with
  | None, Fingerprint -> insert_fp_w set fa fb 1
  | None, Exact -> insert_exact set (fa, fb) ~weight:1 mem
  | Some n, Fingerprint ->
      Pair_set.add set.seen_raw fa fb
      &&
      let ca, cb = Sym.canonical_fingerprint_shared ~n mem in
      insert_fp_w set ca cb (Sym.orbit_size_shared ~n mem)
  | Some n, Exact ->
      (* no raw-repeat guard: the audit must see every configuration *)
      insert_exact set
        (Sym.canonical_fingerprint_shared ~n mem)
        ~weight:(Sym.orbit_size_shared ~n mem) mem

(* In exact mode collisions make the snapshot count authoritative: a
   colliding pair occupies ONE pair-set slot but counts as two distinct
   configurations (two distinct orbits, under a canonical set). *)
let cardinal set =
  match set.canonical with
  | None -> set.fps.Pair_set.count + set.collisions
  | Some _ -> set.weighted

let orbits set = set.fps.Pair_set.count + set.collisions

let collisions set = set.collisions
