(** Superblock cache: straight-line runs of decoded instructions with
    pre-resolved handlers.

    A {!block} is a maximal straight-line sequence of instructions,
    keyed (like {!Decode_cache}) by the physical address of its first
    byte.  Each {!slot} carries a self-contained execution closure
    compiled once at build time — the per-opcode dispatch, the operand
    evaluation plan, and the retire/fault bookkeeping are all resolved
    when the slot is compiled, not per execution.  Blocks end at
    instructions that set the PC (branches, calls, returns), before
    sensitive/privileged instructions and page-straddling instructions
    (both always take the per-step path), and at page boundaries.

    A block is a pure physical-address object: with straddlers excluded,
    every slot's bytes live on the one page of [b_pa], so the only
    invalidation a block ever needs is the store generation of that page
    ({!Vax_mem.Phys_mem.page_gen}).  In particular blocks survive
    translation changes — TBIS/TBIA, process switches, MAPEN — because
    entry always starts from a freshly translated physical PC, and
    every instruction that can change translations is itself
    block-excluded.  Self-modifying code and DMA invalidate at the same
    instruction boundaries as the per-step loop: validity is rechecked
    per slot, not per block, so a store by instruction [k] into the bytes
    of instruction [k+1] of the same block is caught before [k+1] runs.

    The record types are transparent: [Exec.step_blocks] is the single
    driver and manipulates the cursor, chain links and builder directly.

    This module only stores; compilation of slot closures and the
    dispatch loop live in [Exec]. *)

open Vax_arch

type slot = {
  s_pa : int;  (** physical address of the instruction's first byte *)
  s_len : int;  (** instruction length in bytes *)
  s_gen1 : int;  (** store generation of the instruction's page at build time *)
  s_exec : State.t -> Word.t -> unit;
      (** execute the instruction at [start_pc] (the virtual PC):
          charges, counters, operand evaluation, state update, PC
          update, retire trace, and fault delivery — everything
          [Exec.step] does after its decode-cache probe *)
}

type block = {
  b_pa : int;
  b_slots : slot array;
  mutable b_chain1 : block;
      (** most-recently observed successor block ({!empty_block} when
          none): taken-branch and fall-through exits chain here without
          a table probe *)
  mutable b_chain2 : block;  (** second chance, e.g. the not-taken exit *)
}

val empty_block : block
(** Sentinel: never valid (its [b_pa] is -1), compared with [==]. *)

type t = {
  blocks : block array;  (** direct-mapped by physical address *)
  mask : int;
  mutable cur_block : block;
  mutable cur_ix : int;
  mutable cur_pa : int;
      (** expected physical PC of the next instruction; -1 = none.  The
          cursor makes block dispatch one-instruction-at-a-time: the
          machine loop keeps its per-instruction interrupt and device
          checks, and the block merely predicts where execution is. *)
  mutable cur_va : int;
      (** expected {e virtual} PC of the next instruction; -1 = none.
          Set only together with [cur_pa] by a cursor advance, so a
          match implies the whole cursor is coherent. *)
  mutable cur_fgen : int;
      (** {!Vax_mem.Tlb.mutation_generation} at the previous in-block
          fetch.  While it is unchanged and the mode equals [cur_fmode],
          translating [cur_va] would deterministically repeat the
          previous fetch's outcome on the same page — so the dispatch
          loop may take [cur_pa] as the translation without consulting
          the TB (it still counts the TB hit the skipped lookup would
          have counted, per [cur_fhit]). *)
  mutable cur_fmode : Mode.t;  (** access mode at the previous fetch *)
  mutable cur_fhit : bool;
      (** the skipped lookup would count a TB hit (mapping enabled) *)
  mutable last : block;  (** block just exited, awaiting a chain link *)
  bld_slots : slot array;
  mutable bld_n : int;
  mutable bld_pa : int;
  mutable bld_next_pa : int;
  mutable hits : int;  (** slots executed through the cursor or a block entry *)
  mutable misses : int;  (** cold-path instructions *)
  mutable chains : int;  (** block entries through a chain link *)
  mutable built : int;  (** blocks finalized *)
  mutable invalidations : int;  (** blocks dropped on a generation mismatch *)
}

val create : ?size:int -> ?max_block:int -> unit -> t
(** [size] block table slots (default 2048, rounded up to a power of
    two); [max_block] slots per block (default 32). *)

val slot_valid : Vax_mem.Phys_mem.t -> slot -> bool
(** Every page of the slot's bytes still has its build-time store
    generation. *)

val lookup : t -> int -> block
(** The live-keyed block at a physical address, or {!empty_block}.  The
    caller still checks per-slot store generations. *)

val insert : t -> block -> unit

val invalidate : t -> block -> unit
(** Drop a stale block from the table (if still resident) and from the
    cursor/chain anchors. *)

(** {1 Builder} — accumulates slots as the cold path executes them *)

val bld_reset : t -> unit
val bld_active : t -> bool
val bld_full : t -> bool
val bld_begin : t -> pa:int -> unit
val bld_append : t -> slot -> unit

val bld_finish : t -> int
(** Finalize the accumulated prefix into a block, install it, and reset
    the builder; returns the block's slot count (0 = nothing pending). *)

(** {1 Statistics} *)

val hits : t -> int
val misses : t -> int
val chains : t -> int
val built : t -> int
val invalidations : t -> int
val reset_stats : t -> unit

val clear : t -> unit
(** Drop every block, the cursor, and the builder (diagnostics/tests). *)
