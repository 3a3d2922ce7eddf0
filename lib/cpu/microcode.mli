(** The microcode layer: exception and interrupt initiation, REI, CHM,
    process context switching, and processor-register moves.

    Everything here manipulates architectural state exactly as the VAX
    microcode would: frames are really pushed on the service stacks,
    stacks are really switched, and the costs of the work are charged.
    When a host kernel agent (the VMM) is attached, it is invoked *after*
    frame initiation, in lieu of fetching handler code; otherwise the PC
    is vectored through the SCB to guest handler code. *)

open Vax_arch

val dispatch_fault : State.t -> start_pc:Word.t -> next_pc:Word.t -> State.fault -> unit
(** Map a {!State.fault} to its vector, parameters and PC-backup
    convention and deliver it: push PSL, PC and the parameters on the
    service stack, switch mode (and stack), clear PSL<VM> (charging the
    VM exit cost when it was set), then hand the machine's
    {!State.exit_record} to the agent or vector through the SCB.

    The frame is assembled in [State.frame] and pushed with one
    translation when it lies on one page that the TLB maps for a write,
    in RAM, with no fault plan armed ([State.frame_pushes_fast] counts
    these); otherwise word by word.  Both paths charge, count and store
    the same. *)

val take_interrupt : State.t -> ipl:int -> vector:Scb.vector -> unit
(** Deliver a pending interrupt (device or software). *)

val rei : State.t -> unit
(** The REI instruction.  Raises {!State.Fault} [Reserved_operand] on an
    invalid PSL image.  On the Virtualizing variant, loading a PSL with
    PSL<VM> set is permitted only from kernel mode with PSL<VM> clear —
    the VMM's doorway into a VM. *)

val chm : State.t -> target:Mode.t -> code:Word.t -> next_pc:Word.t -> unit
(** The CHM trap: change to a mode of equal or greater privilege through
    the target mode's SCB vector.  Taken on the interrupt stack, it stays
    there, as any exception does. *)

val movpsl_value : State.t -> Word.t
(** What MOVPSL stores: the real PSL, or the merged VM PSL when PSL<VM>
    is set; PSL<VM> itself reads as zero either way. *)

val ldpctx : State.t -> unit
(** Load the process context from the PCB at PCBB ({!Pcb} layout).  The
    P0BR, P0LR, P1BR and P1LR images pass {!Ipr.write_value}, MTPR's
    rule, before anything is loaded: a P0BR outside S space takes a
    reserved-operand fault and leaves the machine as it was. *)

val svpctx : State.t -> unit

val mtpr : State.t -> value:Word.t -> regnum:Word.t -> unit
val mfpr : State.t -> regnum:Word.t -> Word.t
(** MTPR and MFPR under {!Ipr.write_value} and {!Ipr.readable}: a
    register that does not exist on this processor, or does not allow
    the access or the value, is a reserved operand. *)

val vm_emulation_trap : State.t -> Decode.decoded -> start_pc:Word.t -> 'a
(** Record the instruction and its decoded operands in the machine's
    {!State.exit_record} and raise {!State.Vm_emulation_fault} (never
    returns); the step loop backs out the operand side effects and
    dispatches the fault. *)
