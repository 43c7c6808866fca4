(* The memo is probed at every explored node and extended at every
   miss, so it is open-addressed over ONE flat array of ints rather
   than a Hashtbl (whose bucket conses and per-entry records were the
   hot loop's largest allocation), and a slot is two words: the key,
   then a payload word.

   The slot array is a Bigarray, off the GC heap.  As an int array it
   sat in the major heap, where every major cycle marked all of it, and
   the longer cycles of a heap that large let more floating garbage pile
   up before a sweep.  The GC's statistics no longer see the table, so
   [bytes] reports it.

   The payload packs the four counters as 15-bit fields (nodes in bits
   0-14, executions 15-29, truncated 30-44, violations 45-59), so a
   packed payload is non-negative.  A summary with any field outside
   [0, 2^15) goes to [spill], four ints per entry, and its payload word
   is [lnot j] < 0 for spill entry [j].  Few subtrees are that large
   (176 of 549 366 entries on the N=5 uniform CAS chain), so the spill
   stays a small int array and a slot costs two words.

   Keys are non-negative, so [empty = -1] marks free slots, and they are
   already uniformly mixed, so [key land mask] indexes directly, with
   no hash call on the probe.  Linear probing, at most 3/4 full,
   doubling on the insertion that would pass 3/4.  Even at capacity 1
   that leaves a slot free, so a probe for a missing key ends. *)

open Bigarray

type slots = (int, int_elt, c_layout) Array1.t

type t = {
  mutable slots : slots;  (* 2 words per slot: key, payload *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable count : int;
  mutable spill : int array;  (* 4 ints per spilled summary *)
  mutable spilled : int;  (* spill entries handed out *)
}

let empty = -1
let width = 15
let field_mask = (1 lsl width) - 1

let make_slots cap : slots =
  let a = Array1.create int c_layout (2 * cap) in
  Array1.fill a empty;
  a

let create cap =
  { slots = make_slots cap; mask = cap - 1; count = 0; spill = [||]; spilled = 0 }

let length t = t.count
let bytes t = (8 * Array1.dim t.slots) + (8 * Array.length t.spill)

(* slot holding [k], or the free slot where it would go *)
let rec probe (slots : slots) mask k i =
  let ki = slots.{2 * i} in
  if ki = k || ki = empty then i else probe slots mask k ((i + 1) land mask)

let find t k =
  let i = probe t.slots t.mask k (k land t.mask) in
  if t.slots.{2 * i} = k then i else -1

(* field [f] (0 nodes, 1 executions, 2 truncated, 3 violations) *)
let field t i f =
  let p = t.slots.{(2 * i) + 1} in
  if p >= 0 then (p lsr (width * f)) land field_mask
  else t.spill.((4 * lnot p) + f)

let nodes_at t i = field t i 0
let execs_at t i = field t i 1
let trunc_at t i = field t i 2
let viols_at t i = field t i 3

let grow t =
  let old = t.slots in
  let cap = 2 * (t.mask + 1) in
  let slots = make_slots cap and mask = cap - 1 in
  for i = 0 to t.mask do
    let k = old.{2 * i} in
    if k <> empty then begin
      let j = probe slots mask k (k land mask) in
      slots.{2 * j} <- k;
      slots.{(2 * j) + 1} <- old.{(2 * i) + 1}
    end
  done;
  t.slots <- slots;
  t.mask <- mask

(* a fresh spill entry's index *)
let new_spill t =
  if 4 * (t.spilled + 1) > Array.length t.spill then begin
    let bigger = Array.make (max 256 (2 * Array.length t.spill)) 0 in
    Array.blit t.spill 0 bigger 0 (4 * t.spilled);
    t.spill <- bigger
  end;
  t.spilled <- t.spilled + 1;
  t.spilled - 1

let set t k ~nodes ~execs ~trunc ~viols =
  if 4 * (t.count + 1) > 3 * (t.mask + 1) then grow t;
  let i = probe t.slots t.mask k (k land t.mask) in
  if t.slots.{2 * i} = empty then begin
    t.slots.{2 * i} <- k;
    t.count <- t.count + 1
  end;
  (* overwriting a spilled summary leaves its old spill entry unused *)
  t.slots.{(2 * i) + 1} <-
    (if (nodes lor execs lor trunc lor viols) land lnot field_mask = 0 then
       nodes
       lor (execs lsl width)
       lor (trunc lsl (2 * width))
       lor (viols lsl (3 * width))
     else begin
       let j = new_spill t in
       let s = t.spill and o = 4 * j in
       s.(o) <- nodes;
       s.(o + 1) <- execs;
       s.(o + 2) <- trunc;
       s.(o + 3) <- viols;
       lnot j
     end)
