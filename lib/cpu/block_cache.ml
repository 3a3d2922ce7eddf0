open Vax_arch
open Vax_mem

type slot = {
  s_pa : int;
  s_len : int;
  s_gen1 : int;
  s_exec : State.t -> Word.t -> unit;
}

type block = {
  b_pa : int;
  b_slots : slot array;
  mutable b_chain1 : block;
  mutable b_chain2 : block;
}

let rec empty_block =
  { b_pa = -1; b_slots = [||]; b_chain1 = empty_block; b_chain2 = empty_block }

type t = {
  blocks : block array;
  mask : int;
  (* cursor: where in a block the next instruction is expected *)
  mutable cur_block : block;
  mutable cur_ix : int;
  mutable cur_pa : int;  (* expected physical PC; -1 = no prediction *)
  (* fetch-translation memo for the cursor: when the next virtual PC is
     [cur_va] and neither the TB ([cur_fgen] vs the TB's mutation
     generation) nor the access mode ([cur_fmode]) has changed since the
     previous in-block fetch on the same page, the translation of
     [cur_va] is provably [cur_pa] and the I-fetch TB lookup is skipped;
     [cur_fhit] records whether that skipped lookup would have counted a
     TB hit (i.e. mapping was enabled).  -1 = no memo. *)
  mutable cur_va : int;
  mutable cur_fgen : int;
  mutable cur_fmode : Mode.t;
  mutable cur_fhit : bool;
  mutable last : block;  (* block just exited, awaiting a chain link *)
  (* builder: slots accumulated from the cold path *)
  bld_slots : slot array;
  mutable bld_n : int;
  mutable bld_pa : int;  (* start of the block being built; -1 = idle *)
  mutable bld_next_pa : int;
  (* liveness facts: when present, the slot compiler specializes slots
     whose VA has a proven fact (see Block_facts) *)
  mutable facts : Block_facts.t option;
  (* PSL<VM> context the facts describe: guest-image facts (a VM run)
     only apply while PSL<VM> is set — the monitor's own code may reuse
     a guest virtual address for different instructions *)
  mutable facts_vm : bool;
  (* fact freshness stamps for runtime-modified code: va -> (page,
     page-store-generation) recorded when a fact last passed (or was
     first admitted after) byte verification against the live page.
     Per-machine because page generations are per-[Phys_mem]; the fact
     table itself is shared across machines. *)
  fact_stamps : (int, int * int) Hashtbl.t;
  (* statistics *)
  mutable hits : int;
  mutable misses : int;
  mutable chains : int;
  mutable built : int;
  mutable invalidations : int;
  mutable fact_slots : int;
  mutable cc_elided : int;
  mutable const_folded : int;
}

let null_slot = { s_pa = -1; s_len = 0; s_gen1 = 0; s_exec = (fun _ _ -> ()) }

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let default_max_block = 32

let create ?(size = 2048) ?(max_block = default_max_block) () =
  let size = max 64 (next_pow2 size 1) in
  {
    blocks = Array.make size empty_block;
    mask = size - 1;
    cur_block = empty_block;
    cur_ix = 0;
    cur_pa = -1;
    cur_va = -1;
    cur_fgen = 0;
    cur_fmode = Mode.Kernel;
    cur_fhit = false;
    last = empty_block;
    bld_slots = Array.make (max 2 max_block) null_slot;
    bld_n = 0;
    bld_pa = -1;
    bld_next_pa = -1;
    facts = None;
    facts_vm = false;
    fact_stamps = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    chains = 0;
    built = 0;
    invalidations = 0;
    fact_slots = 0;
    cc_elided = 0;
    const_folded = 0;
  }

let slot_valid phys s =
  s.s_gen1 = Phys_mem.page_gen phys (s.s_pa lsr Addr.page_shift)

let lookup t pa =
  let b = Array.unsafe_get t.blocks (pa land t.mask) in
  if b.b_pa = pa then b else empty_block

let insert t b = t.blocks.(b.b_pa land t.mask) <- b

(* Drop a stale block.  The table slot may already hold a different
   block (direct-mapped collision); only evict when it is this one. *)
let invalidate t b =
  let i = b.b_pa land t.mask in
  if t.blocks.(i) == b then t.blocks.(i) <- empty_block;
  t.invalidations <- t.invalidations + 1;
  if t.cur_block == b then begin
    t.cur_pa <- -1;
    t.cur_va <- -1
  end;
  if t.last == b then t.last <- empty_block

(* ------------------------------------------------------------------ *)
(* Builder *)

let bld_reset t =
  t.bld_n <- 0;
  t.bld_pa <- -1;
  t.bld_next_pa <- -1

let bld_active t = t.bld_pa >= 0
let bld_full t = t.bld_n >= Array.length t.bld_slots

let bld_begin t ~pa =
  t.bld_n <- 0;
  t.bld_pa <- pa;
  t.bld_next_pa <- pa

let bld_append t s =
  t.bld_slots.(t.bld_n) <- s;
  t.bld_n <- t.bld_n + 1;
  t.bld_next_pa <- s.s_pa + s.s_len

(* Finalize the accumulated straight-line prefix into a block and install
   it; a single-slot block is still worth caching (its handler is
   pre-resolved).  Returns the new block's slot count, 0 when idle. *)
let bld_finish t =
  let n = t.bld_n in
  if bld_active t && n > 0 then begin
    let b =
      {
        b_pa = t.bld_pa;
        b_slots = Array.sub t.bld_slots 0 n;
        b_chain1 = empty_block;
        b_chain2 = empty_block;
      }
    in
    insert t b;
    t.built <- t.built + 1
  end;
  bld_reset t;
  n

(* ------------------------------------------------------------------ *)

let hits t = t.hits
let misses t = t.misses
let chains t = t.chains
let built t = t.built
let invalidations t = t.invalidations

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.chains <- 0;
  t.built <- 0;
  t.invalidations <- 0;
  t.fact_slots <- 0;
  t.cc_elided <- 0;
  t.const_folded <- 0

(* Gauges for the "blocks.liveness" metrics group: compile-time
   specialization counters plus the static shape of the installed fact
   table (all zero when no facts are installed). *)
let liveness_metrics t =
  let static f = match t.facts with None -> 0 | Some fx -> f fx in
  [
    ("enabled", if t.facts = None then 0 else 1);
    ("fact_slots", t.fact_slots);
    ("cc_elided", t.cc_elided);
    ("const_folded", t.const_folded);
    ("sites", static Block_facts.sites);
    ("cc_dead_sites", static Block_facts.cc_dead_sites);
    ("const_ops", static Block_facts.const_ops);
    ("dead_reg_writes", static (fun fx -> fx.Block_facts.dead_reg_writes));
    ("summary_calls", static (fun fx -> fx.Block_facts.summary_calls));
    ("summary_fallbacks", static (fun fx -> fx.Block_facts.summary_fallbacks));
    ("solver_visits", static (fun fx -> fx.Block_facts.solver_visits));
    ("solver_updates", static (fun fx -> fx.Block_facts.solver_updates));
  ]

let clear t =
  Array.fill t.blocks 0 (Array.length t.blocks) empty_block;
  t.cur_block <- empty_block;
  t.cur_ix <- 0;
  t.cur_pa <- -1;
  t.cur_va <- -1;
  t.last <- empty_block;
  Hashtbl.reset t.fact_stamps;
  bld_reset t
