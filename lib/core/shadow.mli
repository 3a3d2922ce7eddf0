(** Shadow page tables (paper §4.3).

    For each page in the VM's virtual address space there is a PTE in the
    VM's page table (VM-physical page numbers, uncompressed protection)
    and a corresponding shadow PTE (real page frames, compressed
    protection) in tables owned by the VMM.  The shadow tables are the
    only ones the hardware walks while the VM runs.

    Shadow PTEs start as the null PTE — invalid, protection UW — so the
    first touch of a page passes the protection check and takes a
    translation-not-valid fault to the VMM, which fills the entry from
    the VM's PTE and retries ({!fill}).

    Shadow *process* tables are cached across VM context switches in a
    small set of slots keyed by the VM's P0BR (paper §7.2); with caching
    off every context switch clears the single slot, reproducing the
    baseline behaviour whose fault cost the paper measured. *)

open Vax_arch
open Vax_mem

val vm_phys_addr : Vm.t -> Word.t -> len:int -> int
(** The real address of the [len] bytes at VM-physical [vmpa], or -1
    when any of them lies outside the VM's memory. *)

val out_of_range : Word.t -> string
(** Why a VM that referenced VM-physical [vmpa] is halted (paper §5). *)

val vm_io_base_pfn : int
(** VM-physical PFNs at or above this are the VM's I/O space. *)

val init_vm_tables : Phys_mem.t -> Vm.t -> unit
(** Build the static parts: null-fill the shadow S table, map the VMM
    region (slot tables + identity table, protection KW) above the
    boundary, and build the identity table used while the VM runs with
    memory management off. *)

val n_vmm_pages : Vm.t -> int
val real_slr : Vm.t -> int
val real_sbr : Vm.t -> Word.t

val install_mm_registers : Mmu.t -> Vm.t -> unit
(** Point the real memory-management registers at this VM's shadow
    tables, honouring the VM's MAPEN state, and flush the TB. *)

val activate_process : Mmu.t -> Vm.t -> cache:bool -> unit
(** Make the VM's current P0BR/P0LR/P1BR/P1LR the active process: find or
    evict a shadow slot ([cache:false] always reuses and clears slot 0),
    update the real registers, and invalidate process TB entries. *)

type fill_result =
  | Filled  (** shadow PTE now valid; retry the access *)
  | Reflect of Mmu.fault  (** the fault belongs to the VM *)
  | Io_ref of Word.t  (** VM-physical I/O space reference (MMIO mode) *)
  | Halt_nxm of string  (** VM touched nonexistent memory (paper §5) *)

type walk =
  | Pte_at of { pte : Word.t; pa : Word.t }
      (** the VM PTE and the *real* physical address where it lives *)
  | Walk_fault of Mmu.fault  (** a VM fault to reflect *)
  | Walk_nxm of string  (** the tables reach nonexistent VM memory *)

val read_vm_pte : Phys_mem.t -> Vm.t -> Word.t -> walk
(** Software walk of the VM's own page tables for [va]. *)

val fill :
  Mmu.t -> Vm.t -> ?prefill:int -> ?ro_scheme:bool -> Word.t -> fill_result
(** Demand-fill the shadow PTE for [va] from the VM's PTE, compressing
    the protection code and translating the VM-physical frame.  With
    [prefill = n], also translate up to [n] following valid VM PTEs
    (the anticipatory scheme of §4.3.1, measured by experiment E7). *)

val shadow_pte_addr : Vm.t -> Word.t -> Word.t option
(** Real physical address of the shadow PTE for [va] under the currently
    active shadow tables, or [None] if outside them. *)

val set_modify : Mmu.t -> Vm.t -> Word.t -> (unit, string) result
(** Modify-fault service: set PTE<M> in both the shadow PTE and the VM's
    PTE (paper §4.4.2). *)

val upgrade_ro : Mmu.t -> Vm.t -> Word.t -> (unit, string) result
(** The rejected alternative of §4.4.2 (read-only shadow PTEs): on a write
    access violation, check the VM's PTE, set its modify bit, and refill
    the shadow entry with full (compressed) protection. *)

val invalidate_single : Mmu.t -> Vm.t -> Word.t -> unit
(** The VM issued TBIS: the shadow PTE is a cached translation of the
    VM's PTE and must be reloaded on next use. *)

val invalidate_all : Mmu.t -> Vm.t -> unit
(** The VM issued TBIA (or changed SBR/SLR): null the VM-visible part of
    the shadow S table and the active process slot. *)
