(* Cells hold values with their cached digests ([Value.hc]) so that
   per-cell fingerprint folding and space accounting are O(1).  All
   public read/write traffic stays in plain [Value.t]; the digests are
   an internal representation choice. *)

type t = {
  mutable cells : Value.hc array;
  mutable locs : Loc.t array;
  mutable max_bits : int array;
  mutable len : int;
  (* write journal: parallel stacks of (cell id, old contents, old
     max_bits), pushed by every mutation while [journal_on].  [rewind]
     pops back to a [mark] in O(writes-since-mark). *)
  mutable journal_on : bool;
  mutable j_ids : int array;
  mutable j_cells : Value.hc array;
  mutable j_bits : int array;
  mutable j_len : int;
  mutable rewound : int;  (** cumulative cells restored by [rewind] *)
  (* Incrementally maintained fingerprint accumulators (see the
     Fingerprints section below): XOR of per-cell terms over all cells
     ([fpf_*]) and over the shared cells only ([fps_*]).  Every cell
     mutation updates them in O(1), so the model checker's per-node
     fingerprint reads cost two loads instead of an O(cells) scan. *)
  mutable fpf_a : int;
  mutable fpf_b : int;
  mutable fps_a : int;
  mutable fps_b : int;
}

let initial_capacity = 64
let bot () = Value.hc_of Value.Bot

(* Fingerprint half seeds; the per-cell terms below are already keyed on
   the independent [da]/[db] digests cached in each cell's [Value.hc],
   the seeds just separate the empty-memory digests of the two halves. *)
let seed_a = 0x2545F4914F6CDD1
let seed_b = 0x6A09E667F3BCC90

let create ?(capacity = initial_capacity) () =
  let capacity = max 1 capacity in
  let b = bot () in
  {
    cells = Array.make capacity b;
    locs = Array.make capacity (Loc.make ~id:(-1) ~name:"" ~kind:Loc.Shared);
    max_bits = Array.make capacity 0;
    len = 0;
    journal_on = false;
    j_ids = [||];
    j_cells = [||];
    j_bits = [||];
    j_len = 0;
    rewound = 0;
    fpf_a = seed_a;
    fpf_b = seed_b;
    fps_a = seed_a;
    fps_b = seed_b;
  }

let grow mem =
  let cap = Array.length mem.cells in
  let cap' = 2 * cap in
  let extend a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  let b = bot () in
  mem.cells <- extend mem.cells b;
  mem.locs <- extend mem.locs (Loc.make ~id:(-1) ~name:"" ~kind:Loc.Shared);
  mem.max_bits <- extend mem.max_bits 0

(* Per-cell fingerprint terms.  A configuration's digest is the XOR of
   [term_* id cell] over its cells (a Zobrist scheme): XOR is invertible,
   so a cell update adjusts the accumulators with the old and new terms
   in O(1), and a rewind restores them exactly by construction. *)
let term_a id (c : Value.hc) = Value.mix id c.Value.da
let term_b id (c : Value.hc) = Value.mix id c.Value.db

(* The one choke point through which every cell mutation goes: swaps the
   old contents' fingerprint terms for the new ones.  Does NOT journal —
   callers journal first when appropriate (rewind must not).

   Maintenance is gated on [journal_on]: it is the undo engine's
   signature, and that engine is exactly the caller whose hot loop
   reads a fingerprint at every node, where an O(1) accumulator read
   beats the O(cells) scan.  Stores that never journal (torture trials,
   shrink reproductions) read fingerprints rarely if at all, so
   per-write maintenance would be pure overhead — with the gate off
   they keep the scan (see the [live_] readers below).  [set_journal]
   recomputes the accumulators when journaling turns on. *)
let fp_set mem id (c' : Value.hc) =
  if mem.journal_on then begin
    let c = mem.cells.(id) in
    let da = term_a id c lxor term_a id c'
    and db = term_b id c lxor term_b id c' in
    mem.fpf_a <- mem.fpf_a lxor da;
    mem.fpf_b <- mem.fpf_b lxor db;
    if Loc.is_shared mem.locs.(id) then begin
      mem.fps_a <- mem.fps_a lxor da;
      mem.fps_b <- mem.fps_b lxor db
    end
  end;
  mem.cells.(id) <- c'

let alloc mem ~name ~kind init =
  if mem.len = Array.length mem.cells then grow mem;
  let id = mem.len in
  let loc = Loc.make ~id ~name ~kind in
  let init = Value.hc_of init in
  mem.cells.(id) <- init;
  mem.locs.(id) <- loc;
  mem.max_bits.(id) <- init.Value.bits;
  mem.len <- id + 1;
  (* the new cell enters the fingerprint domain with its initial value *)
  let ta = term_a id init and tb = term_b id init in
  mem.fpf_a <- mem.fpf_a lxor ta;
  mem.fpf_b <- mem.fpf_b lxor tb;
  if Loc.is_shared loc then begin
    mem.fps_a <- mem.fps_a lxor ta;
    mem.fps_b <- mem.fps_b lxor tb
  end;
  loc

let check mem (loc : Loc.t) =
  if loc.Loc.id < 0 || loc.Loc.id >= mem.len then
    invalid_arg (Printf.sprintf "Mem: foreign location %s" loc.Loc.name)

let read mem (loc : Loc.t) =
  check mem loc;
  mem.cells.(loc.Loc.id).Value.node

(* ---- journal ---- *)

let grow_journal mem =
  let cap = Array.length mem.j_ids in
  let cap' = if cap = 0 then 256 else 2 * cap in
  let extend a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  mem.j_ids <- extend mem.j_ids 0;
  mem.j_cells <- extend mem.j_cells (bot ());
  mem.j_bits <- extend mem.j_bits 0

let journal mem id =
  if mem.journal_on then begin
    if mem.j_len = Array.length mem.j_ids then grow_journal mem;
    mem.j_ids.(mem.j_len) <- id;
    mem.j_cells.(mem.j_len) <- mem.cells.(id);
    mem.j_bits.(mem.j_len) <- mem.max_bits.(id);
    mem.j_len <- mem.j_len + 1
  end

(* One Zobrist fold over the current contents: [term] picks the half,
   [shared_only] restricts it to the shared cells. *)
let scan mem ~shared_only ~seed term =
  let h = ref seed in
  for i = 0 to mem.len - 1 do
    if (not shared_only) || Loc.is_shared mem.locs.(i) then
      h := !h lxor term i mem.cells.(i)
  done;
  !h

(* Rebuild all four fingerprint accumulators from the current contents
   (the maintained values are only current while [journal_on]). *)
let recompute_fps mem =
  mem.fpf_a <- scan mem ~shared_only:false ~seed:seed_a term_a;
  mem.fpf_b <- scan mem ~shared_only:false ~seed:seed_b term_b;
  mem.fps_a <- scan mem ~shared_only:true ~seed:seed_a term_a;
  mem.fps_b <- scan mem ~shared_only:true ~seed:seed_b term_b

let set_journal mem on =
  let was_on = mem.journal_on in
  mem.journal_on <- on;
  if not on then mem.j_len <- 0
  else begin
    if not was_on then recompute_fps mem;
    if Array.length mem.j_ids = 0 then
      (* pre-size eagerly so the first writes of an undo exploration don't
         pay the 0 -> 256 growth inside the hot loop *)
      grow_journal mem
  end

let journaling mem = mem.journal_on
let journal_depth mem = mem.j_len
let rewound_cells mem = mem.rewound

(* A mark is the pair (arena length, journal depth).  It is mutable so
   that a caller taking one mark per DFS node (the undo explorer) can
   refill a pooled mark with [mark_into] instead of allocating. *)
type mark = { mutable m_len : int; mutable m_j : int }

let mark_into mem m =
  if not mem.journal_on then invalid_arg "Mem.mark: journaling is off";
  m.m_len <- mem.len;
  m.m_j <- mem.j_len

let mark mem =
  let m = { m_len = 0; m_j = 0 } in
  mark_into mem m;
  m

let rewind mem { m_len; m_j } =
  if not mem.journal_on then invalid_arg "Mem.rewind: journaling is off";
  if m_len <> mem.len then invalid_arg "Mem.rewind: allocations since mark";
  if m_j > mem.j_len then invalid_arg "Mem.rewind: stale mark";
  for k = mem.j_len - 1 downto m_j do
    let id = mem.j_ids.(k) in
    fp_set mem id mem.j_cells.(k);
    mem.max_bits.(id) <- mem.j_bits.(k)
  done;
  mem.rewound <- mem.rewound + (mem.j_len - m_j);
  mem.j_len <- m_j

(* ---- mutation ---- *)

(* Cell values carry their bit width ([Value.hc.bits]), so the
   high-water update is a cached compare, not a value walk. *)
let note_hc_bits mem id (c : Value.hc) =
  if c.Value.bits > mem.max_bits.(id) then mem.max_bits.(id) <- c.Value.bits

let write mem (loc : Loc.t) v =
  check mem loc;
  journal mem loc.Loc.id;
  let c = Value.hc_of v in
  fp_set mem loc.Loc.id c;
  note_hc_bits mem loc.Loc.id c

let cas mem (loc : Loc.t) expected desired =
  check mem loc;
  let cur = mem.cells.(loc.Loc.id) in
  (* structural compare against the live cell; digesting [expected]
     (whose only use is this one comparison) would walk and allocate on
     every failed cas *)
  if Value.equal cur.Value.node expected then (
    journal mem loc.Loc.id;
    let c = Value.hc_of desired in
    fp_set mem loc.Loc.id c;
    note_hc_bits mem loc.Loc.id c;
    true)
  else false

let faa mem (loc : Loc.t) delta =
  check mem loc;
  let old = Value.to_int mem.cells.(loc.Loc.id).Value.node in
  let c = Value.hc_of (Value.Int (old + delta)) in
  journal mem loc.Loc.id;
  fp_set mem loc.Loc.id c;
  note_hc_bits mem loc.Loc.id c;
  old

let n_locs mem = mem.len

let loc_by_id mem id =
  if id < 0 || id >= mem.len then invalid_arg "Mem.loc_by_id: out of range";
  mem.locs.(id)

type snapshot = { s_cells : Value.hc array; s_locs : Loc.t array }

let snapshot mem =
  {
    s_cells = Array.sub mem.cells 0 mem.len;
    s_locs = Array.sub mem.locs 0 mem.len;
  }

let snapshot_cells snap =
  Array.init (Array.length snap.s_cells) (fun i ->
      (snap.s_locs.(i), snap.s_cells.(i).Value.node))

let equal_shared a b =
  let n = Array.length a.s_cells in
  n = Array.length b.s_cells
  &&
  let rec go i =
    i >= n
    || ((not (Loc.is_shared a.s_locs.(i)))
        || Value.hc_equal a.s_cells.(i) b.s_cells.(i))
       && go (i + 1)
  in
  go 0

let hash_shared a =
  let h = ref 5381 in
  Array.iteri
    (fun i loc ->
      if Loc.is_shared loc then
        h := (!h * 1000003) lxor a.s_cells.(i).Value.da)
    a.s_locs;
  !h

(* The two fingerprint halves are Zobrist XORs of the [term_a]/[term_b]
   per-cell terms (see above).  The model checker treats a pair
   collision as "same configuration", so the halves must be wide and
   independent; Config_set's exact mode audits them.  Terms use the
   digests cached in each cell ([Value.hc.da]/[db]), so each cell
   costs O(1) regardless of value size — and the [live_] variants just
   read the accumulators the mutation path maintains. *)

let fingerprint_shared snap =
  let a = ref seed_a and b = ref seed_b in
  Array.iteri
    (fun i loc ->
      if Loc.is_shared loc then begin
        let c = snap.s_cells.(i) in
        a := !a lxor term_a i c;
        b := !b lxor term_b i c
      end)
    snap.s_locs;
  (!a, !b)

(* While journaling the accumulators are authoritative (maintained by
   [fp_set]); otherwise fold the terms directly — same values either
   way, one O(cells) scan per call.  Scalar readers, so the per-node hot
   path allocates no pair just to deconstruct it. *)
let live_shared_a mem =
  if mem.journal_on then mem.fps_a
  else scan mem ~shared_only:true ~seed:seed_a term_a

let live_shared_b mem =
  if mem.journal_on then mem.fps_b
  else scan mem ~shared_only:true ~seed:seed_b term_b

let live_full_a mem =
  if mem.journal_on then mem.fpf_a
  else scan mem ~shared_only:false ~seed:seed_a term_a

let live_full_b mem =
  if mem.journal_on then mem.fpf_b
  else scan mem ~shared_only:false ~seed:seed_b term_b

let equal_full a b =
  let n = Array.length a.s_cells in
  n = Array.length b.s_cells
  &&
  let rec go i =
    i >= n || (Value.hc_equal a.s_cells.(i) b.s_cells.(i) && go (i + 1))
  in
  go 0

let shared_bits mem =
  let total = ref 0 in
  for i = 0 to mem.len - 1 do
    if Loc.is_shared mem.locs.(i) then
      total := !total + Value.bits mem.cells.(i).Value.node
  done;
  !total

let max_shared_bits mem =
  let total = ref 0 in
  for i = 0 to mem.len - 1 do
    if Loc.is_shared mem.locs.(i) then total := !total + mem.max_bits.(i)
  done;
  !total

let max_bits_of mem (loc : Loc.t) =
  check mem loc;
  mem.max_bits.(loc.Loc.id)
