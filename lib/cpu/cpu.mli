(** Convenience facade: build a complete processor (physical memory, MMU,
    clock, CPU state) in one call.

    For full machines with devices use [Vax_dev.Machine]; this is the
    bare-CPU entry point used by unit tests and the instruction-level
    tooling. *)

open Vax_arch
open Vax_mem

type t = {
  state : State.t;
  mmu : Mmu.t;
  phys : Phys_mem.t;
  clock : Cycles.t;
  engine : Exec.engine;
  bcache : Block_cache.t;
}

val create :
  ?variant:Variant.t ->
  ?memory_pages:int ->
  ?modify_policy:Mmu.modify_policy ->
  ?engine:Exec.engine ->
  unit ->
  t
(** Default: 1024 pages (512 KB) of RAM, standard variant, hardware-set
    modify bits.  A [Virtualizing] variant defaults to the modify-fault
    policy, as the modified architecture requires.  [engine] defaults to
    [Exec.Blocks] (see {!Exec.engine}). *)

val load : t -> Word.t -> bytes -> unit
(** Copy a program image into physical memory. *)

val step : t -> Exec.status
(** One instruction.  The PSL is exact on return: condition codes a
    block slot deferred (see {!State.cc_lazy}) are materialized. *)

val run : t -> ?max_instructions:int -> unit -> Exec.status
