open Vax_arch

type entry = {
  pfn : int;
  prot : Protection.t;
  acc : int;  (* Protection.access_mask prot, precomputed at fill *)
  mutable m : bool;
  system : bool;
}

(* Two 2-way set-associative banks, mirroring the split translation buffer
   of the real hardware: system (S-space) translations in one bank, process
   (P0/P1) translations in the other.  The split keeps LDPCTX from
   discarding system entries and keeps low S pages from aliasing low P0
   pages; the second way keeps a pair of VPNs congruent modulo the set
   count (e.g. a VMM page and the shadow page it manages) from thrashing a
   set.

   Invalidation is by generation: each bank has a current generation
   number, every slot records the generation it was filled under, and a
   slot is live only while the numbers agree.  TBIA bumps both counters
   and LDPCTX (invalidate_process) bumps the process counter, so both are
   O(1) regardless of how many entries are cached. *)

type t = {
  keys : int array;  (* full VPN key (region bits included); -1 = empty *)
  entries : entry array;
  gens : int array;  (* bank generation the slot was filled under *)
  sets_per_bank : int;
  set_mask : int;
  mutable sys_gen : int;
  mutable proc_gen : int;
  mutable mut_gen : int;  (* bumped by every fill and invalidation *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let null_entry =
  { pfn = 0; prot = Protection.NA; acc = 0; m = false; system = false }

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create ?(capacity = 2048) () =
  let sets_per_bank = max 8 (next_pow2 (capacity / 4) 1) in
  {
    keys = Array.make (4 * sets_per_bank) (-1);
    entries = Array.make (4 * sets_per_bank) null_entry;
    gens = Array.make (4 * sets_per_bank) 0;
    sets_per_bank;
    set_mask = sets_per_bank - 1;
    sys_gen = 1;
    proc_gen = 1;
    mut_gen = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = 4 * t.sets_per_bank

let key va = Word.mask va lsr Addr.page_shift

(* Key bit 22 is VA bit 31: set for the S (and reserved) region.  Reserved
   region references fault before ever reaching the TLB, so the bit cleanly
   selects the bank. *)
let is_system_key k = k land 0x40_0000 <> 0

(* A set's two ways are adjacent slots; the system bank is the upper half
   of the arrays. *)
let slot_of t k =
  let s = 2 * (k land t.set_mask) in
  if is_system_key k then (2 * t.sets_per_bank) + s else s

let live_gen t k = if is_system_key k then t.sys_gen else t.proc_gen

(* Uncounted lookups: the MMU hot path counts hits and misses itself so
   that a fast-path probe followed by the full path still counts once.
   [find_or_null] returns [null_entry] (test with [==]) on a miss rather
   than raising, keeping exception-handler setup off the hot path. *)
let find_or_null t va =
  let k = key va in
  let i = slot_of t k in
  if Array.unsafe_get t.keys i = k && Array.unsafe_get t.gens i = live_gen t k
  then Array.unsafe_get t.entries i
  else if
    Array.unsafe_get t.keys (i + 1) = k
    && Array.unsafe_get t.gens (i + 1) = live_gen t k
  then Array.unsafe_get t.entries (i + 1)
  else null_entry

let find t va =
  let e = find_or_null t va in
  if e == null_entry then raise Not_found else e

let count_hit t = t.hits <- t.hits + 1
let count_hits t n = t.hits <- t.hits + n
let count_miss t = t.misses <- t.misses + 1

let lookup t va =
  match find t va with
  | e ->
      t.hits <- t.hits + 1;
      Some e
  | exception Not_found ->
      t.misses <- t.misses + 1;
      None

let dead t i g = t.keys.(i) < 0 || t.gens.(i) <> g

(* Every state change that could alter a future lookup's outcome bumps
   [mut_gen]: fills (they may evict a congruent live entry) and all three
   invalidation shapes.  [entry.m] flips are deliberately not counted —
   the modify bit only affects writes, and the consumers of [mut_gen]
   reason about read/execute lookups.  The MMU also bumps it on MAPEN
   changes via [touch]. *)
let touch t = t.mut_gen <- t.mut_gen + 1
let mutation_generation t = t.mut_gen

let insert t va e =
  touch t;
  let k = key va in
  let i = slot_of t k in
  let g = live_gen t k in
  let w =
    if t.keys.(i) = k then i
    else if t.keys.(i + 1) = k then i + 1
    else if dead t i g then i
    else if dead t (i + 1) g then i + 1
    else begin
      (* both ways live with other translations: evict the first way (the
         newer fill then lands in the second on the next conflict) *)
      t.evictions <- t.evictions + 1;
      i
    end
  in
  t.keys.(w) <- k;
  t.entries.(w) <- e;
  t.gens.(w) <- g

let invalidate_single t va =
  touch t;
  let k = key va in
  let i = slot_of t k in
  if t.keys.(i) = k then t.keys.(i) <- -1;
  if t.keys.(i + 1) = k then t.keys.(i + 1) <- -1

let invalidate_all t =
  touch t;
  t.sys_gen <- t.sys_gen + 1;
  t.proc_gen <- t.proc_gen + 1

let invalidate_process t =
  touch t;
  t.proc_gen <- t.proc_gen + 1

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

let entry_count t =
  let n = ref 0 in
  Array.iteri
    (fun i k -> if k >= 0 && t.gens.(i) = live_gen t k then incr n)
    t.keys;
  !n
