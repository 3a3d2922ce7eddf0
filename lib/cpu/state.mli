(** CPU state and the fault/event taxonomy.

    The record type is transparent: the VMM legitimately manipulates all
    of this state (it is privileged software), and tests inspect it.

    R14 is the stack pointer of the current mode; the other four stack
    pointers live in {!field-sp_bank} and are exchanged with R14 on every
    mode or interrupt-stack switch.  R15 is the PC. *)

open Vax_arch
open Vax_mem

type fault =
  | Mm_fault of Mmu.fault
  | Privileged_instruction
  | Reserved_instruction
  | Reserved_operand
  | Reserved_addressing
  | Breakpoint_fault
  | Chm_trap of { target : Mode.t; code : Word.t }
  | Arithmetic_trap of int  (** 1 = integer overflow, 2 = divide by zero *)
  | Vm_emulation_fault
      (** the instruction and its decoded operands are in the machine's
          {!exit_record}, filled by [Microcode.vm_emulation_trap] *)
  | Machine_check_fault of { mc_code : int; mc_pa : Word.t }
      (** delivered through SCB vector 0x04 with the code and the
          faulting physical address as frame parameters *)

val mc_nonexistent : int
(** Machine-check code 1: reference to nonexistent physical memory. *)

val mc_parity : int
(** Machine-check code 2: memory parity error (fault injection). *)

val mc_name : int -> string

exception Fault of fault

val pp_fault : Format.formatter -> fault -> unit

(** The three event kinds the vaxlint differential oracle tracks: the
    VM-emulation trap, the privileged-instruction fault, and the modify
    fault (paper §4).  Reported with the faulting instruction's PC. *)
type trap_kind = Trap_vm_emulation | Trap_privileged | Trap_modify

val trap_kind_name : trap_kind -> string

val max_vm_operands : int
(** 6: the most operands any instruction carries into a VM-emulation
    frame. *)

val max_frame_words : int
(** Longwords in the largest exception frame: the four VM-emulation
    header words, three per operand, two fault parameters, PC and PSL. *)

(** The exit record: what the microcode hands to the host kernel agent
    (the VMM) after initiating an exception or interrupt.  The frame is
    already on the service stack; this is a decoded summary so the agent
    does not need to re-parse it (the data still architecturally lives on
    the stack).

    There is one record per machine, overwritten by every exception, so
    an exit allocates nothing.  The agent must read it before the next
    exception is initiated; the VMM is host code and initiates none while
    it services one.

    The VM-emulation fields (paper §4.2: the VMM receives the instruction
    "and its decoded operands") are written by
    [Microcode.vm_emulation_trap] when it raises {!Vm_emulation_fault},
    and are meaningful while [x_vector] is [Scb.vm_emulation].  Operand
    [i < x_noperands] is [x_op_tag.(i)] (0 = value, 1 = memory address,
    2 = register number, 3 = branch target), [x_op_value.(i)], and
    [x_op_side_effect.(i)]: the register autoincrement/-decrement the
    instruction would apply, encoded [(register lsl 8) lor (delta land
    0xFF)], or [-1] for none.  The trap microcode backs the side effect
    out; the VMM re-applies it when it emulates the instruction rather
    than retrying it. *)
type exit_record = {
  mutable x_vector : Scb.vector;
  mutable x_pc : Word.t;  (** saved PC in the frame *)
  mutable x_psl : Word.t;  (** saved PSL in the frame *)
  mutable x_interrupt : bool;
  mutable x_from_vm : bool;  (** PSL<VM> was set when the event occurred *)
  mutable x_nparams : int;  (** fault parameters, 0–2 *)
  x_params : Word.t array;
      (** the fault parameters, [x_params.(0)] nearest the top of stack *)
  mutable x_frame_words : int;
      (** longwords pushed, PC and PSL included: what the agent pops *)
  mutable x_opcode : Opcode.t;
  mutable x_length : int;  (** total instruction length in bytes *)
  mutable x_vm_psl : Word.t;  (** the VM's merged PSL at the trap *)
  mutable x_noperands : int;
  x_op_tag : int array;
  x_op_value : Word.t array;
  x_op_side_effect : int array;
}

type t = {
  variant : Variant.t;
  mmu : Mmu.t;
  clock : Cycles.t;
  dcache : Decode_cache.t;  (** decoded-instruction cache (see {!Decode_cache}) *)
  regs : Word.t array;  (** R0–R15; R14 = SP of current mode, R15 = PC *)
  mutable psl : Psl.t;
  mutable cc_lazy : int;
      (** lazy condition codes: 0 = [psl] holds the live NZVC;
          otherwise a block engine fast-tier slot (a move, clear, TSTL
          or logical op) recorded its CC source in [cc_value] instead of
          computing N, Z and V — class 1 long, 2 byte.  C is always
          exact in [psl] (TSTL clears it eagerly).  Every reader of
          N, Z or V calls {!sync_cc} first, and every eager write of all
          four codes drops the pending class, so the deferral is
          architecturally invisible whatever code follows. *)
  mutable cc_value : Word.t;  (** the deferred CC source value *)
  sp_bank : Word.t array;  (** kernel, executive, supervisor, user, interrupt *)
  mutable vmpsl : Word.t;  (** modified VAX only; zero otherwise *)
  mutable vmpend : int;  (** highest pending virtual interrupt level *)
  mutable ipl_assist : bool;
      (** the VAX-11/730-style microcode assist for MTPR-to-IPL in VM mode
          (paper §7.3); off by default, as on the 785/8800 *)
  mutable scbb : Word.t;
  mutable pcbb : Word.t;
  mutable sisr : int;
  mutable sid : Word.t;
  mutable pending_interrupts : (int * Scb.vector) list;
  exit : exit_record;  (** reused by every exception; see {!exit_record} *)
  frame : Word.t array;
      (** scratch of {!max_frame_words} longwords in which exception
          delivery assembles a frame before pushing it *)
  mutable agent : (exit_record -> unit) option;
  mutable ipr_read_hook : Ipr.t -> Word.t option;
  mutable ipr_write_hook : Ipr.t -> Word.t -> bool;
  mutable trap_observer : (trap_kind -> Word.t -> unit) option;
      (** called by the microcode with the faulting instruction's PC for
          every VM-emulation trap, privileged-instruction fault, and
          modify fault; installed by the vaxlint differential oracle *)
  mutable halted : bool;
  mutable double_fault : string option;
      (** set (with [halted]) when machine-check delivery itself
          machine-checked; [Machine.run] reports the run as
          [Double_fault] instead of [Halted] *)
  mutable stop_requested : bool;
  mutable idle_hint : bool;
      (** set by the VMM when no VM is runnable: the machine loop may skip
          simulated time to the next device event *)
  mutable inject : Vax_fault.Engine.t;
      (** the armed fault-injection engine, [Engine.null] unless
          [Machine.create ~inject] wired one in; used for containment
          accounting on the machine-check paths *)
  (* statistics *)
  mutable instructions : int;
  mutable vm_instructions : int;
  mutable interrupts_taken : int;
  mutable frame_pushes_fast : int;
      (** exception frames pushed with a single translation (see
          [Microcode.dispatch_fault]); not a metric, the simulated
          machine cannot tell the two push paths apart *)
  exceptions_by_vector : int array;
      (** exceptions taken, indexed by SCB vector / 4; read through
          {!exception_count} and {!exception_counts} *)
  exceptions_elsewhere : (Scb.vector, int) Hashtbl.t;
      (** counts for vectors outside the SCB page (a fault plan may post
          any spurious vector) *)
  mutable trace : Vax_obs.Trace.t;
      (** machine-wide event trace; {!Vax_obs.Trace.null} (disabled)
          unless the owning machine wires a live one in.  The CPU emits
          retire, trap, exception/interrupt, CHMx/REI and VM entry/exit
          events; every emit site is guarded by [Trace.enabled]. *)
}

val create :
  ?variant:Variant.t -> ?sid:Word.t -> mmu:Mmu.t -> clock:Cycles.t -> unit -> t

val sid_standard : Word.t
val sid_virtualizing : Word.t
val sid_virtual_vax : Word.t
(** SID values for the three processor identities; the virtual VAX is "a
    specific member of the family" (paper §8) with its own SID. *)

(** {1 Register and PSL helpers} *)

val sync_cc : t -> unit
(** Materialize deferred condition codes into [psl] (no-op when none
    are pending).  Called before the PSL is read, pushed, replaced or
    partially written: by conditional branches (fast tier and generic),
    exception and interrupt delivery, MOVPSL, BISPSW/BICPSW, the
    division-by-zero V write, the block engine's cold path, the run
    loops' exits and [Cpu.step]. *)

val pc : t -> Word.t
val set_pc : t -> Word.t -> unit
val sp : t -> Word.t
val set_sp : t -> Word.t -> unit
val reg : t -> int -> Word.t
val set_reg : t -> int -> Word.t -> unit
val cur_mode : t -> Mode.t

val stack_slot : t -> int
(** Bank slot of the current PSL (interrupt stack = 4). *)

val switch_stack_to : t -> int -> unit
(** Save R14 into the current slot, load R14 from the target slot. *)

val read_sp_of : t -> int -> Word.t
(** Read a banked stack pointer (slot 0–4), seeing through R14 when the
    slot is current. *)

val write_sp_of : t -> int -> Word.t -> unit

(** {1 Memory access (raising {!Fault})} *)

val read_byte : t -> Mode.t -> Word.t -> int

(** Instruction-stream byte fetch in the current mode: fully translated
    (and so subject to faults and TB costs) but without the per-datum
    memory charge — the prefetch stream is covered by each instruction's
    base cycles. *)
val fetch_byte : t -> Word.t -> int

val code_pa : t -> Word.t -> int
(** Translate an instruction address in the current mode, with exactly
    the fault and cycle behaviour of {!fetch_byte}'s translation.  Used
    by the step loop to key the decode cache by physical PC. *)

val write_byte : t -> Mode.t -> Word.t -> int -> unit
val read_word16 : t -> Mode.t -> Word.t -> int
val write_word16 : t -> Mode.t -> Word.t -> int -> unit
val read_long : t -> Mode.t -> Word.t -> Word.t
val write_long : t -> Mode.t -> Word.t -> Word.t -> unit

val push_long : t -> Word.t -> unit
(** Push on the current stack (R14), checked in current mode. *)

val pop_long : t -> Word.t

(** {1 Interrupt requests} *)

val post_interrupt : t -> ipl:int -> vector:Scb.vector -> unit
val retract_interrupt : t -> vector:Scb.vector -> unit

val highest_pending : t -> (int * Scb.vector) option
(** Highest-priority pending request (device or software), if any is
    above the current IPL. *)

val merged_vm_psl : t -> Word.t
(** The VM's PSL as MOVPSL and the VM-emulation frame present it: the real
    PSL with CUR/PRV/IPL/IS taken from VMPSL and PSL<VM> cleared. *)

val double_fault_halt : t -> string -> unit
(** Record that exception delivery itself machine-checked and halt
    cleanly; a real VAX console-halts here.  Notes the double fault on
    the injection engine for containment accounting. *)

val count_exception : t -> Scb.vector -> unit

val exception_count : t -> Scb.vector -> int
(** Exceptions and interrupts initiated through [vector] so far. *)

val exception_counts : t -> (Scb.vector * int) list
(** Every vector taken at least once, with its count. *)
