(* Per-virtual-machine state held by the VMM.

   While a VM runs, its general registers, PSL and VMPSL live in the real
   CPU; when it is descheduled they are saved here.  Everything else —
   virtual stack pointers, virtual memory-management and SCB/PCB
   registers, virtual interrupt and device state, the shadow page tables —
   is VMM software state, exactly as in the paper's design.

   No interface file: this module *is* the data definition; the curated
   API is in {!Vmm}. *)

open Vax_arch

(* How the VM's disk is presented (paper §4.4.3): the explicit start-I/O
   handshake via the KCALL register, or emulated memory-mapped I/O
   registers (the expensive alternative, kept for the ablation). *)
type io_mode = Kcall_io | Mmio_io

type run_state =
  | Runnable
  | Idle_until of int  (** WAIT executed; resumes at this cycle or on a
                           virtual interrupt *)
  | Halted_vm of string

(* One shadow-process-table cache slot (paper §7.2): retains the shadow
   P0/P1 tables of a suspended VM process so resuming it does not refill
   them.  [key] is the VM's P0BR value, which identifies the VM address
   space. *)
type slot = {
  slot_index : int;
  sp0_pfn : int;  (** real frames of the shadow P0 table *)
  sp1_pfn : int;
  sp0_va : Word.t;  (** S virtual address of the shadow P0 table *)
  sp1_va : Word.t;
  mutable key : Word.t option;
  mutable sp0_len : int;  (** clamped copy of the VM's P0LR *)
  mutable sp1_lr : int;  (** clamped copy of the VM's P1LR *)
  mutable last_used : int;
}

type stats = {
  mutable emulation_traps : int;
  by_opcode : int array;  (** emulation traps by [Opcode.index] *)
  mutable shadow_fills : int;
  mutable shadow_invalidations : int;
  mutable modify_faults : int;
  mutable reflected_faults : int;
  mutable chm_forwarded : int;
  mutable rei_emulated : int;
  mutable virq_delivered : int;
  mutable io_requests : int;
  mutable mmio_trap_count : int;
  mutable probe_emulated : int;
  mutable context_switches : int;
  mutable shadow_cache_hits : int;
  mutable shadow_cache_misses : int;
  mutable fills_at_last_switch : int;
  mutable fills_between_switches_sum : int;
  mutable switch_samples : int;
  mutable prefill_filled : int;
  mutable prefill_used_probe : int;
}

let fresh_stats () =
  {
    emulation_traps = 0;
    by_opcode = Array.make Opcode.index_count 0;
    shadow_fills = 0;
    shadow_invalidations = 0;
    modify_faults = 0;
    reflected_faults = 0;
    chm_forwarded = 0;
    rei_emulated = 0;
    virq_delivered = 0;
    io_requests = 0;
    mmio_trap_count = 0;
    probe_emulated = 0;
    context_switches = 0;
    shadow_cache_hits = 0;
    shadow_cache_misses = 0;
    fills_at_last_switch = 0;
    fills_between_switches_sum = 0;
    switch_samples = 0;
    prefill_filled = 0;
    prefill_used_probe = 0;
  }

let count_opcode stats op =
  let i = Opcode.index op in
  stats.by_opcode.(i) <- stats.by_opcode.(i) + 1

let opcode_count stats op = stats.by_opcode.(Opcode.index op)

(* Virtual disk controller registers, used only in Mmio_io mode. *)
type vdisk = {
  mutable vd_csr : int;
  mutable vd_block : int;
  mutable vd_addr : Word.t;
}

type t = {
  name : string;
  vid : int;
  base_pfn : int;  (** real frame of VM-physical page 0 *)
  memsize : int;  (** VM-physical pages *)
  disk_base : int;  (** first real disk block of the VM's partition *)
  disk_blocks : int;
  io_mode : io_mode;
  mutable run_state : run_state;
  (* saved CPU context while descheduled *)
  saved_regs : Word.t array;
      (** R0–R15.  R0–R13 lag the CPU while the VM is resident; the VMM
          writes them back when it switches away, goes idle, or returns
          from [Vmm.run]. *)
  mutable saved_psl : Word.t;  (** real PSL to resume with, incl. PSL<VM> *)
  mutable saved_vmpsl : Word.t;
  (* virtual privileged registers *)
  sps : Word.t array;  (** virtual K/E/S/U/interrupt stack pointers *)
  mutable scbb : Word.t;  (** VM-physical *)
  mutable pcbb : Word.t;
  mutable sisr : int;
  mutable mapen : bool;
  mutable p0br : Word.t;
  mutable p0lr : int;
  mutable p1br : Word.t;
  mutable p1lr : int;
  mutable sbr : Word.t;
  mutable slr : int;
  (* virtual interrupts *)
  mutable pending_virq : (int * int) list;  (** (level, vector) *)
  (* virtual interval timer *)
  mutable iccs : int;
  mutable nicr : int;
  mutable timer_gen : int;
  mutable uptime_ticks : int;
  (* virtual console *)
  console_out : Buffer.t;
  mutable console_in : int list;
  mutable rxcs : int;
  mutable txcs : int;
  vdisk : vdisk;
  (* shadow page tables *)
  shadow_s_pfn : int;  (** real frames of the shadow system page table *)
  shared_stack_pfn : int;  (** VMM stack frames mapped into every shadow *)
  identity_pfn : int;  (** identity map used while the VM runs untranslated *)
  slots : slot array;
  mutable active_slot : int;
  mutable lru_clock : int;
  (* instruction accounting *)
  mutable guest_instructions : int;
  mutable instr_mark : int;  (** cpu.vm_instructions at last schedule *)
  stats : stats;
}

let is_runnable vm ~now =
  match vm.run_state with
  | Runnable -> true
  | Idle_until t -> now >= t
  | Halted_vm _ -> false

let wake vm =
  match vm.run_state with Idle_until _ -> vm.run_state <- Runnable | _ -> ()

let post_virq vm ~level ~vector =
  if not (List.mem (level, vector) vm.pending_virq) then
    vm.pending_virq <- (level, vector) :: vm.pending_virq;
  wake vm

let retract_virq vm ~vector =
  vm.pending_virq <- List.filter (fun (_, v) -> v <> vector) vm.pending_virq

(* highest pending virtual interrupt above the VM's current IPL *)
let deliverable_virq vm ~vm_ipl =
  if vm.sisr = 0 && vm.pending_virq == [] then None
  else
    let soft =
      let rec scan l =
        if l = 0 then None
        else if vm.sisr land (1 lsl l) <> 0 then
          Some (l, Scb.software_interrupt l)
        else scan (l - 1)
      in
      scan 15
    in
    let best =
      List.fold_left
        (fun acc (l, v) ->
          match acc with Some (bl, _) when bl >= l -> acc | _ -> Some (l, v))
        soft vm.pending_virq
    in
    match best with Some (l, _) when l > vm_ipl -> best | _ -> None

let highest_pending_level vm =
  match deliverable_virq vm ~vm_ipl:(-1) with Some (l, _) -> l | None -> 0
