(* The paper's Popek–Goldberg taxonomy over the simulated subset, and the
   per-site trap prediction the differential oracle checks against.

   Classification (paper §3–§4), read from {!Opcode.sensitivity}:
   - privileged: trap when executed outside kernel mode;
   - sensitive but unprivileged: read or depend on privileged state
     without trapping on a standard VAX — the instructions that break
     the VAX for classical virtualization;
   - innocuous: everything else.

   Trap prediction is a superset relation: a predicted (site, kind) pair
   may never fire (conditional traps such as the IPL assist or PROBE on a
   valid shadow PTE), but every runtime VM-emulation trap, privileged
   fault, or modify fault must land on a predicted pair. *)

open Vax_arch
open Vax_cpu
module Disasm = Vax_asm.Disasm

type cls = Innocuous | Privileged | Sensitive_unprivileged

let classify op =
  match Opcode.sensitivity op with
  | Opcode.Innocuous -> Innocuous
  | Opcode.Privileged -> Privileged
  | Opcode.Traps_in_vm | Opcode.Composed_in_vm | Opcode.Traps_on_condition ->
      Sensitive_unprivileged

let cls_name = function
  | Innocuous -> "innocuous"
  | Privileged -> "privileged"
  | Sensitive_unprivileged -> "sensitive-unprivileged"

(* Which instructions may take the VM-emulation trap when PSL<VM> is
   set.  MOVPSL is the deliberate exception: the modified microcode
   composes the virtual PSL in place, which is the paper's showcase of a
   sensitive instruction virtualized without trapping (§4.4.1). *)
let vm_trapping op =
  match Opcode.sensitivity op with
  | Opcode.Privileged | Opcode.Traps_in_vm | Opcode.Traps_on_condition -> true
  | Opcode.Innocuous | Opcode.Composed_in_vm -> false

(* Assumed execution context of an image: on the bare machine or inside a
   virtual machine (PSL<VM> set while its code runs). *)
type mode_assumption = Bare | Vm

let mode_name = function Bare -> "bare" | Vm -> "vm"

let mem_capable_spec = function
  | Disasm.Register _ | Disasm.Literal _ | Disasm.Immediate _
  | Disasm.Branch_dest _ ->
      false
  | _ -> true

(* Can this instruction write memory — explicitly through a write/modify
   operand with a memory-capable specifier, or implicitly through the
   microcode's stack pushes?  Any such site can raise a modify fault when
   the M bit of the target page is clear (demand-zero pages under the
   Vms_like profile; shadow page tables under the VMM). *)
let writes_memory (i : Disasm.insn) =
  match i.Disasm.opcode with
  | None -> false
  | Some op ->
      let implicit =
        match op with
        | Opcode.Pushl | Opcode.Bsbb | Opcode.Jsb | Opcode.Calls
        | Opcode.Chmk | Opcode.Chme | Opcode.Chms | Opcode.Chmu
        | Opcode.Ldpctx | Opcode.Svpctx ->
            true
        | _ -> false
      in
      implicit
      ||
      (* a truncated decode at the image edge can leave fewer specs than
         the operand table expects; treat such a site conservatively as
         memory-writing rather than letting [exists2] raise *)
      (try
         List.exists2
           (fun (access, _) spec ->
             (access = Opcode.Write || access = Opcode.Modify)
             && mem_capable_spec spec)
           (Opcode.operands op) i.Disasm.specs
       with Invalid_argument _ -> true)

(* What vaxflow proved about the access modes live at a site: can it be
   reached with the (virtual) PSL in kernel mode, and can it be reached
   in any non-kernel mode?  Refines {!predict} — see below. *)
type flow_fact = { may_kernel : bool; may_other : bool }

let predict ~mode ?flow (i : Disasm.insn) : State.trap_kind list =
  match i.Disasm.opcode with
  | None -> []
  | Some op -> (
      let writes = if writes_memory i then [ State.Trap_modify ] else [] in
      match mode with
      | Bare ->
          (* a privileged opcode faults only outside kernel mode — except
             WAIT, whose microcode on the bare machine raises the
             privileged fault even from kernel mode (idling is only
             virtualized, §5), so flow facts must not prune it *)
          (if
             Opcode.privileged op
             &&
             match flow with
             | Some { may_other = false; _ } when op <> Opcode.Wait -> false
             | _ -> true
           then [ State.Trap_privileged ]
           else [])
          @ writes
      | Vm ->
          (* a privileged opcode takes the VM-emulation trap from VM-kernel
             mode but the ordinary privileged fault from VM-user mode, so
             without flow facts both are predicted at the site; a flow
             fact keeps only the kinds its mode set can realize *)
          (if Opcode.privileged op then
             match flow with
             | None -> [ State.Trap_vm_emulation; State.Trap_privileged ]
             | Some { may_kernel; may_other } ->
                 (if may_kernel then [ State.Trap_vm_emulation ] else [])
                 @ (if may_other then [ State.Trap_privileged ] else [])
           else if vm_trapping op then [ State.Trap_vm_emulation ]
           else [])
          @ writes)
