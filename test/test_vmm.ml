(* Integration tests for the VMM: simple guests running in virtual
   machines, ring compression behaviour, shadow page tables, virtual
   devices, and VM isolation. *)

open Vax_arch
open Vax_cpu
open Vax_dev
open Vax_vmm
module Asm = Vax_asm.Asm

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let build f origin =
  let a = Asm.create ~origin in
  f a;
  Asm.assemble a

let make_vmm ?config () =
  let m = Machine.create ~variant:Variant.Virtualizing ~memory_pages:4096 () in
  (m, Vmm.create ?config m)

let boot_guest ?config ?io_mode ?(memory_pages = 256) f =
  let m, vmm = make_vmm ?config () in
  let img = build f 0x200 in
  let vm =
    Vmm.add_vm vmm ~name:"guest" ~memory_pages ~disk_blocks:16 ?io_mode
      ~images:[ (0x200, img.Asm.code) ]
      ~start_pc:0x200 ()
  in
  (m, vmm, vm, img)

let run_vmm vmm = Vmm.run vmm ~max_cycles:50_000_000 ()

let halted_ok (vm : Vm.t) =
  match vm.Vm.run_state with
  | Vm.Halted_vm "guest HALT" -> ()
  | Vm.Halted_vm r -> Alcotest.failf "VM halted abnormally: %s" r
  | _ -> Alcotest.fail "VM did not halt"

(* emit: MTPR #char, #TXDB *)
let emit_putc a ch =
  Asm.ins a Opcode.Mtpr
    [ Asm.Imm (Char.code ch); Asm.Imm (Ipr.to_int Ipr.TXDB) ]

let test_trivial_guest () =
  (* arithmetic + console output + HALT, all in VM kernel mode with
     memory management off (identity space) *)
  let _, vmm, vm, _ =
    boot_guest (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 6; Asm.R 0 ];
        Asm.ins a Opcode.Mull2 [ Asm.Imm 7; Asm.R 0 ];
        emit_putc a 'o';
        emit_putc a 'k';
        Asm.ins a Opcode.Halt [])
  in
  (match run_vmm vmm with
  | Machine.Stopped -> ()
  | o -> Alcotest.failf "unexpected outcome %a" Machine.pp_outcome o);
  halted_ok vm;
  check_int "r0" 42 vm.Vm.saved_regs.(0);
  check_str "console" "ok" (Vmm.console_output vm)

let test_movpsl_shows_virtual_kernel () =
  (* MOVPSL inside the VM must report virtual kernel mode even though the
     real hardware is running the VM in executive mode. *)
  let _, vmm, vm, _ =
    boot_guest (fun a ->
        Asm.ins a Opcode.Movpsl [ Asm.R 0 ];
        Asm.ins a Opcode.Halt [])
  in
  ignore (run_vmm vmm);
  halted_ok vm;
  let psl = vm.Vm.saved_regs.(0) in
  check_str "cur" "kernel" (Mode.name (Psl.cur psl));
  check_int "vm bit hidden" 0 (Word.logand psl Psl.vm_bit_mask)

let test_virtual_sid_and_memsize () =
  let _, vmm, vm, _ =
    boot_guest ~memory_pages:128 (fun a ->
        Asm.ins a Opcode.Mfpr [ Asm.Imm (Ipr.to_int Ipr.SID); Asm.R 0 ];
        Asm.ins a Opcode.Mfpr [ Asm.Imm (Ipr.to_int Ipr.MEMSIZE); Asm.R 1 ];
        Asm.ins a Opcode.Halt [])
  in
  ignore (run_vmm vmm);
  halted_ok vm;
  check_int "sid is virtual-vax" State.sid_virtual_vax vm.Vm.saved_regs.(0);
  check_int "memsize" 128 vm.Vm.saved_regs.(1)

let test_wait_idles_and_resumes () =
  (* WAIT gives up the processor; the VM resumes after the timeout *)
  let _, vmm, vm, _ =
    boot_guest (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 1; Asm.R 0 ];
        Asm.ins a Opcode.Wait [];
        Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 0 ];
        Asm.ins a Opcode.Halt [])
  in
  ignore (run_vmm vmm);
  halted_ok vm;
  check_int "resumed after wait" 2 vm.Vm.saved_regs.(0)

let test_two_vms_isolated () =
  (* each VM writes a distinctive pattern over its own memory; both
     patterns must survive, and consoles must not interleave *)
  let m, vmm = make_vmm () in
  let mk tag =
    build
      (fun a ->
        (* fill VM-physical page 16 with the tag *)
        Asm.ins a Opcode.Movl [ Asm.Imm (16 * 512); Asm.R 2 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 128; Asm.R 3 ];
        Asm.label a "fill";
        Asm.ins a Opcode.Movl [ Asm.Imm tag; Asm.Deref 2 ];
        Asm.ins a Opcode.Addl2 [ Asm.Imm 4; Asm.R 2 ];
        Asm.ins a Opcode.Sobgtr [ Asm.R 3; Asm.Branch "fill" ];
        emit_putc a (Char.chr (tag land 0x7F));
        Asm.ins a Opcode.Halt [])
      0x200
  in
  let img_a = mk (Char.code 'A') and img_b = mk (Char.code 'B') in
  let vm_a =
    Vmm.add_vm vmm ~name:"a" ~memory_pages:64 ~disk_blocks:8
      ~images:[ (0x200, img_a.Asm.code) ] ~start_pc:0x200 ()
  in
  let vm_b =
    Vmm.add_vm vmm ~name:"b" ~memory_pages:64 ~disk_blocks:8
      ~images:[ (0x200, img_b.Asm.code) ] ~start_pc:0x200 ()
  in
  ignore m;
  ignore (run_vmm vmm);
  halted_ok vm_a;
  halted_ok vm_b;
  check_int "vm a pattern" (Char.code 'A')
    (Vmm.vm_phys_read_long vmm vm_a (16 * 512));
  check_int "vm b pattern" (Char.code 'B')
    (Vmm.vm_phys_read_long vmm vm_b (16 * 512));
  check_str "console a" "A" (Vmm.console_output vm_a);
  check_str "console b" "B" (Vmm.console_output vm_b)

let test_kcall_disk_io () =
  (* guest writes a block via KCALL, reads it back into other memory *)
  let _, vmm, vm, _ =
    boot_guest (fun a ->
        let packet = 0x4000 and buf = 0x4800 and buf2 = 0x5000 in
        (* fill source buffer *)
        Asm.ins a Opcode.Movl [ Asm.Imm (0x1BADCAFE land 0xFFFFFF); Asm.Abs buf ];
        (* write packet: fn=2 (write), block=3, buf *)
        Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.Abs packet ];
        Asm.ins a Opcode.Movl [ Asm.Imm 3; Asm.Abs (packet + 4) ];
        Asm.ins a Opcode.Movl [ Asm.Imm buf; Asm.Abs (packet + 8) ];
        Asm.ins a Opcode.Clrl [ Asm.Abs (packet + 12) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm packet; Asm.Imm (Ipr.to_int Ipr.KCALL) ];
        (* poll status *)
        Asm.label a "wait1";
        Asm.ins a Opcode.Tstl [ Asm.Abs (packet + 12) ];
        Asm.ins a Opcode.Beql [ Asm.Branch "wait1" ];
        (* read it back into buf2: fn=1 *)
        Asm.ins a Opcode.Movl [ Asm.Imm 1; Asm.Abs packet ];
        Asm.ins a Opcode.Movl [ Asm.Imm buf2; Asm.Abs (packet + 8) ];
        Asm.ins a Opcode.Clrl [ Asm.Abs (packet + 12) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm packet; Asm.Imm (Ipr.to_int Ipr.KCALL) ];
        Asm.label a "wait2";
        Asm.ins a Opcode.Tstl [ Asm.Abs (packet + 12) ];
        Asm.ins a Opcode.Beql [ Asm.Branch "wait2" ];
        Asm.ins a Opcode.Movl [ Asm.Abs buf2; Asm.R 0 ];
        Asm.ins a Opcode.Halt [])
  in
  ignore (run_vmm vmm);
  halted_ok vm;
  check_int "block roundtrip" (0x1BADCAFE land 0xFFFFFF) vm.Vm.saved_regs.(0);
  check_int "io requests" 2 vm.Vm.stats.Vm.io_requests;
  (* disk content verifiable from the host too *)
  let blk = Vmm.read_vm_disk vmm vm 3 in
  check_int "host view of block" (0x1BADCAFE land 0xFFFFFF)
    (Char.code (Bytes.get blk 0)
    lor (Char.code (Bytes.get blk 1) lsl 8)
    lor (Char.code (Bytes.get blk 2) lsl 16))


(* ------------------------------------------------------------------ *)
(* Ring compression and mode behaviour inside a VM                     *)

(* Build a guest that installs a minimal SCB and drops to a less
   privileged virtual mode, runs [inner] there, and lets CHMK come back. *)
let mode_probe_guest ~target_psl ~inner a =
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "kh"; Asm.R 0 ];
  Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x2000 + Scb.chmk) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x5000; Asm.Imm (Ipr.to_int Ipr.KSP) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x5800; Asm.Imm (Ipr.to_int Ipr.ESP) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x6000; Asm.Imm (Ipr.to_int Ipr.SSP) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x6800; Asm.Imm (Ipr.to_int Ipr.USP) ];
  Asm.ins a Opcode.Pushl [ Asm.Imm target_psl ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "inner"; Asm.Predec Asm.sp ];
  Asm.ins a Opcode.Rei [];
  Asm.label a "inner";
  inner a;
  Asm.ins a Opcode.Chmk [ Asm.Imm 1 ];
  Asm.label a "spin";
  Asm.ins a Opcode.Brb [ Asm.Branch "spin" ];
  Asm.align a 4;
  Asm.label a "kh";
  Asm.ins a Opcode.Halt []

let psl_user = 0x03C0_0000
let psl_exec = 0x0140_0000 (* cur=exec prv=exec *)

let test_vm_rei_to_user_and_back () =
  (* full mode round trip inside the VM: kernel -> REI -> user -> CHMK ->
     kernel; MOVPSL in user mode must show virtual user *)
  let _, vmm, vm, _ =
    boot_guest (fun a ->
        mode_probe_guest ~target_psl:psl_user
          ~inner:(fun a -> Asm.ins a Opcode.Movpsl [ Asm.R 6 ])
          a)
  in
  ignore (run_vmm vmm);
  halted_ok vm;
  check_str "user mode seen" "user" (Mode.name (Psl.cur vm.Vm.saved_regs.(6)));
  check_int "rei emulated" 1 vm.Vm.stats.Vm.rei_emulated;
  check_int "chm forwarded" 1 vm.Vm.stats.Vm.chm_forwarded

let test_vm_privileged_from_virtual_user_faults () =
  (* MTPR from virtual user mode: privileged-instruction fault reflected
     into the VM (its handler halts); NOT silently executed *)
  let _, vmm, vm, _ =
    boot_guest (fun a ->
        (* point the priv-instr vector at a guest handler *)
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "ph"; Asm.R 0 ];
        Asm.ins a Opcode.Movl
          [ Asm.R 0; Asm.Abs (0x2000 + Scb.privileged_instruction) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x5000; Asm.Imm (Ipr.to_int Ipr.KSP) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x6800; Asm.Imm (Ipr.to_int Ipr.USP) ];
        Asm.ins a Opcode.Pushl [ Asm.Imm psl_user ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "u"; Asm.Predec Asm.sp ];
        Asm.ins a Opcode.Rei [];
        Asm.label a "u";
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0; Asm.Imm (Ipr.to_int Ipr.IPL) ];
        Asm.label a "spin";
        Asm.ins a Opcode.Brb [ Asm.Branch "spin" ];
        Asm.align a 4;
        Asm.label a "ph";
        Asm.ins a Opcode.Movl [ Asm.Imm 0xDEAD; Asm.R 7 ];
        Asm.ins a Opcode.Halt [])
  in
  ignore (run_vmm vmm);
  halted_ok vm;
  check_int "guest handler saw the fault" 0xDEAD vm.Vm.saved_regs.(7);
  check_int "one fault reflected" 1 vm.Vm.stats.Vm.reflected_faults

let test_vm_exec_mode_mtpr_reflected () =
  (* virtual executive mode is NOT virtual kernel: privileged
     instructions must fault (the execution side of ring compression) *)
  let _, vmm, vm, _ =
    boot_guest (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "ph"; Asm.R 0 ];
        Asm.ins a Opcode.Movl
          [ Asm.R 0; Asm.Abs (0x2000 + Scb.privileged_instruction) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x5000; Asm.Imm (Ipr.to_int Ipr.KSP) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x5800; Asm.Imm (Ipr.to_int Ipr.ESP) ];
        Asm.ins a Opcode.Pushl [ Asm.Imm psl_exec ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "e"; Asm.Predec Asm.sp ];
        Asm.ins a Opcode.Rei [];
        Asm.label a "e";
        (* executive mode: this must trap even though the real hardware
           runs both virtual kernel and executive in real executive *)
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0; Asm.Imm (Ipr.to_int Ipr.IPL) ];
        Asm.label a "spin";
        Asm.ins a Opcode.Brb [ Asm.Branch "spin" ];
        Asm.align a 4;
        Asm.label a "ph";
        Asm.ins a Opcode.Movpsl [ Asm.R 7 ];
        Asm.ins a Opcode.Halt [])
  in
  ignore (run_vmm vmm);
  halted_ok vm;
  (* handler runs in virtual kernel, previous mode = executive *)
  check_str "prv is executive" "executive"
    (Mode.name (Psl.prv vm.Vm.saved_regs.(7)))

let test_vm_cannot_touch_vmm_memory () =
  (* resource control: S addresses above the VM's limit are length
     violations reflected to the VM, and the VMM region is never
     writable by any VM mode *)
  let _, vmm, vm, _ =
    boot_guest (fun a ->
        Vax_workloads.Conformance.emit_spt_and_mapen a
          ~test_pte:(Pte.make ~modify:true ~prot:Protection.UW ~pfn:16 ());
        (* write far above the VM's S limit: into VMM territory *)
        Asm.ins a Opcode.Movl
          [
            Asm.Imm 0xBAD;
            Asm.Abs (0x8000_0000 + (Vax_vmm.Layout.vmm_s_base_vpn * 512));
          ];
        Asm.ins a Opcode.Halt [])
  in
  ignore (run_vmm vmm);
  (* no SCB handler for the reflected ACV: the VM dies, the VMM lives *)
  (match vm.Vm.run_state with
  | Vm.Halted_vm _ -> ()
  | _ -> Alcotest.fail "VM not halted");
  check_bool "fault was reflected, not executed" true
    (vm.Vm.stats.Vm.reflected_faults >= 1)

let test_vm_nxm_halts_vm () =
  (* paper §5: touching nonexistent memory halts the VM (possible attack) *)
  let _, vmm, vm, _ =
    boot_guest ~memory_pages:64 (fun a ->
        Vax_workloads.Conformance.emit_spt_and_mapen a
          ~test_pte:
            (Pte.make ~modify:true ~prot:Protection.UW ~pfn:5000 ())
          (* frame 5000 is way outside a 64-page VM *);
        Asm.ins a Opcode.Tstl [ Asm.Abs 0x8000_0000 ];
        Asm.ins a Opcode.Halt [])
  in
  ignore (run_vmm vmm);
  match vm.Vm.run_state with
  | Vm.Halted_vm reason ->
      check_bool "halted for nonexistent memory" true
        (String.length reason > 0 && reason <> "guest HALT")
  | _ -> Alcotest.fail "VM not halted"

let test_tbis_discipline () =
  (* changing a valid VM PTE and issuing TBIS must invalidate the shadow:
     the next access sees the NEW mapping *)
  let _, vmm, vm, _ =
    boot_guest (fun a ->
        (* frame 16 holds the SPT itself; use frames 20/21 as targets *)
        Vax_workloads.Conformance.emit_spt_and_mapen a
          ~test_pte:(Pte.make ~modify:true ~prot:Protection.UW ~pfn:20 ());
        (* write marker through S page 0 (frame 20) *)
        Asm.ins a Opcode.Movl [ Asm.Imm 0x1111; Asm.Abs 0x8000_0000 ];
        (* remap S page 0 to frame 21, TBIS, write again *)
        Asm.ins a Opcode.Movl
          [
            Asm.Imm (Pte.make ~modify:true ~prot:Protection.UW ~pfn:21 ());
            Asm.Abs 0x8000_2000;
          ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000_0000; Asm.Imm (Ipr.to_int Ipr.TBIS) ];
        Asm.ins a Opcode.Movl [ Asm.Imm 0x2222; Asm.Abs 0x8000_0000 ];
        Asm.ins a Opcode.Halt [])
  in
  ignore (run_vmm vmm);
  halted_ok vm;
  check_int "first write hit frame 20" 0x1111
    (Vmm.vm_phys_read_long vmm vm (20 * 512));
  check_int "post-TBIS write hit frame 21" 0x2222
    (Vmm.vm_phys_read_long vmm vm (21 * 512))

let test_probe_invalid_pte_emulated () =
  (* PROBE of a page whose VM PTE is invalid: the VMM must emulate using
     the VM's protection code (standard-VAX semantics: protection is
     checked even when invalid) *)
  let _, vmm, vm, _ =
    boot_guest (fun a ->
        Vax_workloads.Conformance.emit_spt_and_mapen a
          ~test_pte:
            (Pte.make ~valid:false ~modify:false ~prot:Protection.UW ~pfn:16 ());
        Asm.ins a Opcode.Prober [ Asm.Lit 3; Asm.Lit 4; Asm.Abs 0x8000_0000 ];
        Asm.ins a Opcode.Movpsl [ Asm.R 6 ];
        Asm.ins a Opcode.Halt [])
  in
  ignore (run_vmm vmm);
  halted_ok vm;
  check_bool "probe emulated at least once" true
    (vm.Vm.stats.Vm.probe_emulated >= 1);
  check_bool "UW page reported accessible despite invalid PTE" true
    (not (Psl.z vm.Vm.saved_regs.(6)))

(* ------------------------------------------------------------------ *)
(* One-translation exception-frame push                                *)

(* S pages 20 and 21 hold the kernel stack; every S page below the page
   table (frame 64) is identity-mapped, kernel-writable, PTE<M> set. *)
let s_va vpn = 0x8000_0000 + (vpn * Addr.page_size)

let mapped_machine ?inject variant =
  let m = Machine.create ~variant ~memory_pages:128 ?inject () in
  let phys = m.Machine.phys and mmu = m.Machine.mmu in
  let sbr = 64 * Addr.page_size in
  for vpn = 0 to 63 do
    Vax_mem.Phys_mem.write_long phys (sbr + (4 * vpn))
      (Pte.make ~valid:true ~modify:true ~prot:Protection.KW ~pfn:vpn ())
  done;
  Vax_mem.Mmu.set_sbr mmu sbr;
  Vax_mem.Mmu.set_slr mmu 64;
  Vax_mem.Mmu.set_mapen mmu true;
  (* both stack pages TLB-resident before the trap *)
  List.iter
    (fun vpn ->
      match
        Vax_mem.Mmu.translate mmu ~mode:Mode.Kernel ~write:true (s_va vpn)
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "stack page not mapped")
    [ 20; 21 ];
  m

type pushed = {
  words : int list;  (** the frame, top of stack first *)
  sp_drop : int;
  cycles : int;
  tlb_hits : int;
  fast : int;  (** one-translation pushes taken *)
}

(* Take [trap] from user mode (a VM's, on the modified VAX) with the
   kernel stack pointer at [ksp] and report what the push did. *)
let take_trap ?inject ~variant ~ksp trap =
  let m = mapped_machine ?inject variant in
  let st = m.Machine.cpu and mmu = m.Machine.mmu in
  let user =
    Psl.with_ipl (Psl.with_prv (Psl.with_cur 0 Mode.User) Mode.User) 0
  in
  if variant = Variant.Virtualizing then begin
    st.State.psl <- Psl.with_vm user true;
    st.State.vmpsl <- Psl.with_cur 0 Mode.Kernel;
    st.State.agent <- Some (fun _ -> ())
  end
  else st.State.psl <- user;
  State.set_sp st (s_va 30);
  st.State.sp_bank.(0) <- ksp;
  let c0 = Cycles.now m.Machine.clock in
  let h0 = Vax_mem.Tlb.hits (Vax_mem.Mmu.tlb mmu) in
  let f0 = st.State.frame_pushes_fast in
  trap st;
  let sp = State.sp st in
  let n = (ksp - sp) / 4 in
  {
    words =
      List.init n (fun i ->
          Vax_mem.Phys_mem.read_long m.Machine.phys (sp - s_va 0 + (4 * i)));
    sp_drop = ksp - sp;
    cycles = Cycles.now m.Machine.clock - c0;
    tlb_hits = Vax_mem.Tlb.hits (Vax_mem.Mmu.tlb mmu) - h0;
    fast = st.State.frame_pushes_fast - f0;
  }

let operand ?side_effect access width loc value =
  { Decode.loc; value; width; access; side_effect; branch_target = None }

let emulation_trap opcode operands st =
  let length = 1 + (2 * List.length operands) in
  let d =
    {
      Decode.opcode;
      operands;
      length;
      next_pc = 0x1000 + length;
      tmpl =
        { Decode_cache.t_opcode = opcode; t_specs = []; t_len = length };
    }
  in
  try Microcode.vm_emulation_trap st d ~start_pc:0x1000
  with State.Fault f ->
    Microcode.dispatch_fault st ~start_pc:0x1000 ~next_pc:d.Decode.next_pc f

let fault f st = Microcode.dispatch_fault st ~start_pc:0x1000 ~next_pc:0x1004 f

let frame_push_cases =
  [
    ("REI", Variant.Virtualizing, emulation_trap Opcode.Rei []);
    ( "CHMK",
      Variant.Virtualizing,
      emulation_trap Opcode.Chmk
        [ operand Opcode.Read Opcode.Word (Decode.Imm 7) 7 ] );
    ( "MTPR",
      Variant.Virtualizing,
      emulation_trap Opcode.Mtpr
        [
          operand Opcode.Read Opcode.Long (Decode.Imm 0x1F) 0x1F;
          operand Opcode.Read Opcode.Long (Decode.Imm 18) 18;
        ] );
    ( "PROBER",
      Variant.Virtualizing,
      emulation_trap Opcode.Prober
        [
          operand Opcode.Read Opcode.Byte (Decode.Imm 3) 3;
          operand Opcode.Read Opcode.Word (Decode.Imm 4) 4;
          operand ~side_effect:(2, -1) Opcode.Address Opcode.Byte
            (Decode.Mem 0x200) Decode.no_value;
        ] );
    ( "TNV",
      Variant.Virtualizing,
      fault
        (State.Mm_fault
           (Vax_mem.Mmu.Translation_not_valid
              { va = 0x1234; ptbl_ref = false; write = true })) );
    ("arithmetic (bare)", Variant.Standard, fault (State.Arithmetic_trap 1));
  ]

let test_frame_push_equivalence () =
  List.iter
    (fun (name, variant, trap) ->
      (* mid-page: the one-translation push *)
      let fast = take_trap ~variant ~ksp:(s_va 20 + 0x100) trap in
      (* the frame straddles pages 20/21, both TLB-resident: per word *)
      let split = take_trap ~variant ~ksp:(s_va 21 + 8) trap in
      check_int (name ^ ": one-translation push taken") 1 fast.fast;
      check_int (name ^ ": straddling frame pushed per word") 0 split.fast;
      Alcotest.(check (list int))
        (name ^ ": frame words") fast.words split.words;
      check_int (name ^ ": SP") fast.sp_drop split.sp_drop;
      check_int (name ^ ": cycles") fast.cycles split.cycles;
      check_int (name ^ ": TLB hits") fast.tlb_hits split.tlb_hits;
      (* an armed fault plan (one that never fires) keeps the per-word
         path even mid-page *)
      let plan =
        {
          Vax_fault.Fault_plan.name = "idle";
          entries =
            [
              {
                Vax_fault.Fault_plan.label = "never";
                trigger = Vax_fault.Fault_plan.At_cycle max_int;
                action = Vax_fault.Fault_plan.Stuck_timer;
              };
            ];
        }
      in
      let armed =
        take_trap ~inject:(Vax_fault.Engine.create plan) ~variant
          ~ksp:(s_va 20 + 0x100) trap
      in
      check_int (name ^ ": armed plan pushes per word") 0 armed.fast;
      Alcotest.(check (list int)) (name ^ ": armed frame words") fast.words
        armed.words;
      check_int (name ^ ": armed cycles") fast.cycles armed.cycles;
      check_int (name ^ ": armed TLB hits") fast.tlb_hits armed.tlb_hits)
    frame_push_cases

(* ------------------------------------------------------------------ *)
(* The live register file across VM switches                           *)

(* With a 2000-cycle slice the two guests switch mid-loop many times;
   each must still end exactly as it does alone.  A write-back of the
   live R0–R13 missed on the switch or idle path shows up here as a
   wrong register or console; one missed when [Vmm.run] returns, as
   registers that differ from the CPU's at a cycle-budget cut. *)
let test_registers_survive_switches () =
  let open Vax_workloads in
  let config = { Vmm.default_config with time_slice_cycles = 2_000 } in
  let compute = Catalog.build "compute" and calls = Catalog.build "calls" in
  let a, b = Runner.run_two_vms ~config compute calls in
  let solo_a = Runner.run_vm ~config compute in
  let solo_b = Runner.run_vm ~config calls in
  let regs (m : Runner.measurement) =
    match m.Runner.vm with
    | Some vm -> Array.to_list vm.Vm.saved_regs
    | None -> Alcotest.fail "no VM in measurement"
  in
  let switches (m : Runner.measurement) =
    match m.Runner.vm with
    | Some vm -> vm.Vm.stats.Vm.context_switches
    | None -> 0
  in
  check_bool "the pair really switched" true (switches a + switches b > 10);
  check_str "compute console" solo_a.Runner.console a.Runner.console;
  check_str "calls console" solo_b.Runner.console b.Runner.console;
  Alcotest.(check (list int)) "compute registers" (regs solo_a) (regs a);
  Alcotest.(check (list int)) "calls registers" (regs solo_b) (regs b);
  let cut = Runner.run_vm ~config ~max_cycles:50_000 compute in
  let cpu = cut.Runner.machine.Machine.cpu in
  Alcotest.(check (list int)) "registers at a budget cut"
    (List.init 14 (State.reg cpu))
    (List.filteri (fun r _ -> r < 14) (regs cut))

(* ------------------------------------------------------------------ *)
(* Containment: no guest raises out of [Vmm.run]                       *)

(* R0–R13 as the LDPCTX guest sets them: R5 = ^x1234, the rest
   distinct *)
let ldpctx_regs = List.init 14 (fun r -> if r = 5 then 0x1234 else 0x100 + r)

(* A PCB of zeros carries a P0BR outside S space, which the VM's LDPCTX
   rejects: the VM must see a reserved-operand fault at the LDPCTX with
   its registers and stack pointers as they were, or, without a usable
   SCB, be halted cleanly. *)
let ldpctx_guest ~scbb a =
  List.iteri (fun r v -> Asm.ins a Opcode.Movl [ Asm.Imm v; Asm.R r ]) ldpctx_regs;
  Asm.ins a Opcode.Mtpr [ Asm.Imm scbb; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "rop"; Asm.Abs (0x2000 + Scb.reserved_operand) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x1000; Asm.Imm (Ipr.to_int Ipr.PCBB) ];
  Asm.label a "ldpctx";
  Asm.ins a Opcode.Ldpctx [];
  Asm.ins a Opcode.Halt [];
  Asm.align a 4;
  Asm.label a "rop";
  Asm.ins a Opcode.Halt []

let test_rejected_ldpctx_reflects () =
  List.iter
    (fun (name, scbb) ->
      let _, vmm, vm, img = boot_guest (ldpctx_guest ~scbb) in
      let sps = Array.copy vm.Vm.sps in
      (match run_vmm vmm with
      | Machine.Stopped -> ()
      | o -> Alcotest.failf "%s: unexpected outcome %a" name Machine.pp_outcome o);
      Alcotest.(check (list int))
        (name ^ ": R0-R13 as before the LDPCTX") ldpctx_regs
        (List.filteri (fun r _ -> r < 14) (Array.to_list vm.Vm.saved_regs));
      Alcotest.(check (list int))
        (name ^ ": KSP ESP SSP USP as before") (Array.to_list (Array.sub sps 0 4))
        (Array.to_list (Array.sub vm.Vm.sps 0 4));
      if scbb = 0x2000 then begin
        halted_ok vm;
        check_int "one reserved-operand fault reflected" 1
          vm.Vm.stats.Vm.reflected_faults;
        (* the frame on the interrupt stack: the LDPCTX's PC, then the PSL *)
        check_int "ISP holds one frame" (sps.(4) - 8) vm.Vm.sps.(4);
        check_int "frame PC is the LDPCTX" (Asm.lookup img "ldpctx")
          (Vmm.vm_phys_read_long vmm vm vm.Vm.sps.(4))
      end
      else begin
        (match vm.Vm.run_state with
        | Vm.Halted_vm r ->
            check_bool (name ^ ": halted for its SCB") true
              (String.starts_with ~prefix:"SCB unreachable" r)
        | _ -> Alcotest.failf "%s: VM not halted" name);
        check_int (name ^ ": ISP untouched") sps.(4) vm.Vm.sps.(4)
      end)
    [ ("usable SCB", 0x2000); ("SCB outside VM memory", 0x10_0000) ]

(* One sensitive instruction with random operands, run in a VM with
   mapping on or off over a random PCB, stack and SCB.  Whatever it
   does, it must end inside the VM: reflected to it, halting it, or
   still running at the cycle budget. *)
type sensitive =
  | Rei
  | Ldpctx
  | Svpctx
  | Chm of Opcode.t * int
  | Mtpr of int * int  (** value, IPR number *)
  | Mfpr of int * Asm.operand  (** IPR number, destination *)
  | Probe of Opcode.t * int * int * int  (** mode, length, base *)
  | Kcall of int  (** packet address *)

type escape_case = {
  mapen : bool;
  insn : sensitive;
  scbb : int;
  pcbb : int;
  sp : int;
  pcb : int array;  (** 24 longwords at 0x5000 *)
  stack : int array;  (** 8 longwords at 0x6000 *)
  packet : int array;  (** 4 longwords at 0x7000 *)
}

let pp_sensitive = function
  | Rei -> "REI"
  | Ldpctx -> "LDPCTX"
  | Svpctx -> "SVPCTX"
  | Chm (op, code) -> Printf.sprintf "%s #%x" (Opcode.name op) code
  | Mtpr (v, r) -> Printf.sprintf "MTPR #%x, #%d" v r
  | Mfpr (r, _) -> Printf.sprintf "MFPR #%d" r
  | Probe (op, m, l, b) -> Printf.sprintf "%s #%d, #%x, @#%x" (Opcode.name op) m l b
  | Kcall p -> Printf.sprintf "KCALL %x" p

let print_case c =
  Printf.sprintf "%s mapen=%b scbb=%x pcbb=%x sp=%x" (pp_sensitive c.insn)
    c.mapen c.scbb c.pcbb c.sp

let gen_case =
  let open QCheck.Gen in
  let word = map (fun i -> i land 0xFFFF_FFFF) int in
  let addr = oneof [ int_range 0 0x8000; word ] in
  let longs n = array_repeat n (oneof [ word; int_range 0 0x8000; return 0x8000_0000 ]) in
  let insn =
    oneof
      [
        return Rei;
        return Ldpctx;
        return Svpctx;
        map2 (fun op code -> Chm (op, code))
          (oneofl Opcode.[ Chmk; Chme; Chms; Chmu ]) (int_bound 0xFFFF);
        map2 (fun v r -> Mtpr (v, r)) (oneof [ word; addr ]) (int_bound 255);
        map2 (fun r d -> Mfpr (r, d)) (int_bound 255)
          (oneof [ return (Asm.R 3); map (fun a -> Asm.Abs a) addr ]);
        map (fun (op, m, l, b) -> Probe (op, m, l, b))
          (quad (oneofl Opcode.[ Prober; Probew ]) (int_bound 3) (int_bound 0xFFFF) addr);
        map (fun p -> Kcall p) (oneof [ return 0x7000; addr ]);
      ]
  in
  let* mapen = bool in
  let* insn = insn in
  let* scbb = oneof [ return 0x4000; addr ] in
  let* pcbb = oneof [ return 0x5000; addr ] in
  let* sp = oneof [ return 0x6000; addr ] in
  let* pcb = longs 24 in
  let* stack = longs 8 in
  let+ packet = array_repeat 4 (oneof [ int_bound 3; int_bound 100; addr ]) in
  { mapen; insn; scbb; pcbb; sp; pcb; stack; packet }

let image_of_longs ls =
  let b = Bytes.create (4 * Array.length ls) in
  Array.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)) ls;
  b

let run_escape_case c =
  let m = Machine.create ~variant:Variant.Virtualizing ~memory_pages:1024 () in
  let vmm = Vmm.create m in
  let a = Asm.create ~origin:0x200 in
  if c.mapen then
    Vax_workloads.Conformance.emit_spt_and_mapen a
      ~test_pte:(Pte.make ~modify:true ~prot:Protection.UW ~pfn:16 ());
  Asm.ins a Opcode.Mtpr [ Asm.Imm c.scbb; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm c.pcbb; Asm.Imm (Ipr.to_int Ipr.PCBB) ];
  Asm.ins a Opcode.Movl [ Asm.Imm c.sp; Asm.R Asm.sp ];
  (match c.insn with
  | Rei -> Asm.ins a Opcode.Rei []
  | Ldpctx -> Asm.ins a Opcode.Ldpctx []
  | Svpctx -> Asm.ins a Opcode.Svpctx []
  | Chm (op, code) -> Asm.ins a op [ Asm.Imm code ]
  | Mtpr (v, r) -> Asm.ins a Opcode.Mtpr [ Asm.Imm v; Asm.Imm r ]
  | Mfpr (r, d) -> Asm.ins a Opcode.Mfpr [ Asm.Imm r; d ]
  | Probe (op, md, l, b) -> Asm.ins a op [ Asm.Imm md; Asm.Imm l; Asm.Abs b ]
  | Kcall p -> Asm.ins a Opcode.Mtpr [ Asm.Imm p; Asm.Imm (Ipr.to_int Ipr.KCALL) ]);
  Asm.ins a Opcode.Halt [];
  Asm.align a 4;
  Asm.label a "handler";
  Asm.ins a Opcode.Halt [];
  let img = Asm.assemble a in
  let scb = Array.make 128 (Asm.lookup img "handler") in
  ignore
    (Vmm.add_vm vmm ~name:"fuzz" ~memory_pages:128 ~disk_blocks:8
       ~images:
         [
           (0x200, img.Asm.code);
           (0x4000, image_of_longs scb);
           (0x5000, image_of_longs c.pcb);
           (0x6000, image_of_longs c.stack);
           (0x7000, image_of_longs c.packet);
         ]
       ~start_pc:0x200 ());
  ignore (Vmm.run vmm ~max_cycles:200_000 ())

let no_escape_prop =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
    (QCheck.Test.make ~count:1000 ~name:"no sensitive instruction escapes Vmm.run"
       (QCheck.make ~print:print_case gen_case)
       (fun c ->
         match run_escape_case c with
         | () -> true
         | exception e ->
             QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

(* A KCALL transfer whose 512-byte buffer runs past the top of VM a's
   memory must not reach VM b, whose memory lies just above: status 2,
   and neither VM's memory nor a's disk changes.  A buffer that ends
   exactly at the top still transfers. *)
let kcall_dma ~fn ~block ~buf =
  let _, vmm = make_vmm () in
  let guest =
    build
      (fun a ->
        let packet = 0x1000 in
        Asm.ins a Opcode.Movl [ Asm.Imm fn; Asm.Abs packet ];
        Asm.ins a Opcode.Movl [ Asm.Imm block; Asm.Abs (packet + 4) ];
        Asm.ins a Opcode.Movl [ Asm.Imm buf; Asm.Abs (packet + 8) ];
        Asm.ins a Opcode.Clrl [ Asm.Abs (packet + 12) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm packet; Asm.Imm (Ipr.to_int Ipr.KCALL) ];
        Asm.label a "wait";
        Asm.ins a Opcode.Tstl [ Asm.Abs (packet + 12) ];
        Asm.ins a Opcode.Beql [ Asm.Branch "wait" ];
        Asm.ins a Opcode.Movl [ Asm.Abs (packet + 12); Asm.R 0 ];
        Asm.ins a Opcode.Halt [])
      0x200
  in
  let halt = build (fun a -> Asm.ins a Opcode.Halt []) 0x200 in
  let vm_a =
    Vmm.add_vm vmm ~name:"a" ~memory_pages:64 ~disk_blocks:8
      ~images:[ (0x200, guest.Asm.code) ] ~start_pc:0x200 ()
  in
  let vm_b =
    Vmm.add_vm vmm ~name:"b" ~memory_pages:64 ~disk_blocks:8
      ~images:[ (0x200, halt.Asm.code); (0, Bytes.make 512 '\xCD') ]
      ~start_pc:0x200 ()
  in
  Vmm.load_vm_disk vmm vm_a 0 (Bytes.make 512 '\xAB');
  ignore (run_vmm vmm);
  halted_ok vm_a;
  halted_ok vm_b;
  (vmm, vm_a, vm_b)

let test_disk_dma_stays_in_vm () =
  let top = 64 * 512 in
  (* read: block 0 (all ^xAB) into a buffer 4 bytes below the top *)
  let vmm, a, b = kcall_dma ~fn:1 ~block:0 ~buf:(top - 4) in
  check_int "read overrun refused" 2 a.Vm.saved_regs.(0);
  check_int "b's memory untouched" 0xCDCDCDCD (Vmm.vm_phys_read_long vmm b 0x10);
  check_int "a's last longword untouched" 0 (Vmm.vm_phys_read_long vmm a (top - 4));
  (* write: block 1 from the same buffer would carry b's memory out *)
  let vmm, a, _ = kcall_dma ~fn:2 ~block:1 ~buf:(top - 4) in
  check_int "write overrun refused" 2 a.Vm.saved_regs.(0);
  check_bool "a's disk untouched" true
    (Bytes.equal (Vmm.read_vm_disk vmm a 1) (Bytes.make 512 '\x00'));
  (* a buffer ending exactly at the top is whole *)
  let vmm, a, b = kcall_dma ~fn:1 ~block:0 ~buf:(top - 512) in
  check_int "top buffer transferred" 1 a.Vm.saved_regs.(0);
  check_int "top buffer holds the block" 0xABABABAB
    (Vmm.vm_phys_read_long vmm a (top - 4));
  check_int "b still untouched" 0xCDCDCDCD (Vmm.vm_phys_read_long vmm b 0x10)

(* The emulated MMIO disk reports a refused transfer as the real disk
   does: DONE with ERROR (CSR bit 5) latched, and no data moved.  A
   buffer that ends exactly at the top of VM memory still transfers. *)
let mmio_disk_read ~buf =
  let _, vmm, vm, _ =
    boot_guest ~io_mode:Vm.Mmio_io ~memory_pages:64 (fun a ->
        Vax_workloads.Conformance.emit_spt_and_mapen a
          ~test_pte:
            (Pte.make ~valid:true ~modify:true ~prot:Protection.KW
               ~pfn:Shadow.vm_io_base_pfn ());
        let csr = 0x8000_0000 in
        Asm.ins a Opcode.Movl [ Asm.Imm 0; Asm.Abs (csr + 4) ];
        Asm.ins a Opcode.Movl [ Asm.Imm buf; Asm.Abs (csr + 8) ];
        Asm.ins a Opcode.Movl [ Asm.Imm 1; Asm.Abs csr ];
        Asm.label a "wait";
        Asm.ins a Opcode.Movl [ Asm.Abs csr; Asm.R 4 ];
        Asm.ins a Opcode.Bicl3
          [ Asm.Imm (Word.lognot Disk.bit_done); Asm.R 4; Asm.R 3 ];
        Asm.ins a Opcode.Beql [ Asm.Branch "wait" ];
        Asm.ins a Opcode.Halt [])
  in
  Vmm.load_vm_disk vmm vm 0 (Bytes.make 512 '\xAB');
  ignore (run_vmm vmm);
  halted_ok vm;
  (vmm, vm, vm.Vm.saved_regs.(4))

let test_mmio_disk_refusal () =
  let top = 64 * 512 in
  let vmm, vm, csr = mmio_disk_read ~buf:(top - 4) in
  check_bool "refused read: ERROR set" true (csr land Disk.bit_error <> 0);
  check_int "refused read: memory untouched" 0
    (Vmm.vm_phys_read_long vmm vm (top - 4));
  let vmm, vm, csr = mmio_disk_read ~buf:(top - 512) in
  check_bool "good read: ERROR clear" true (csr land Disk.bit_error = 0);
  check_int "good read: block transferred" 0xABABABAB
    (Vmm.vm_phys_read_long vmm vm (top - 4))

let () =
  Alcotest.run "vax_vmm"
    [
      ( "vmm",
        [
          Alcotest.test_case "trivial guest" `Quick test_trivial_guest;
          Alcotest.test_case "MOVPSL shows virtual kernel" `Quick
            test_movpsl_shows_virtual_kernel;
          Alcotest.test_case "virtual SID and MEMSIZE" `Quick
            test_virtual_sid_and_memsize;
          Alcotest.test_case "WAIT idles and resumes" `Quick
            test_wait_idles_and_resumes;
          Alcotest.test_case "two VMs are isolated" `Quick test_two_vms_isolated;
          Alcotest.test_case "KCALL disk I/O" `Quick test_kcall_disk_io;
        ] );
      ( "ring compression",
        [
          Alcotest.test_case "REI to user and CHMK back" `Quick
            test_vm_rei_to_user_and_back;
          Alcotest.test_case "privileged instr from virtual user" `Quick
            test_vm_privileged_from_virtual_user_faults;
          Alcotest.test_case "virtual executive is not kernel" `Quick
            test_vm_exec_mode_mtpr_reflected;
        ] );
      ( "security",
        [
          Alcotest.test_case "VM cannot touch VMM memory" `Quick
            test_vm_cannot_touch_vmm_memory;
          Alcotest.test_case "nonexistent memory halts the VM" `Quick
            test_vm_nxm_halts_vm;
          Alcotest.test_case "rejected LDPCTX reflects, state intact" `Quick
            test_rejected_ldpctx_reflects;
          Alcotest.test_case "disk DMA stays inside its VM" `Quick
            test_disk_dma_stays_in_vm;
          Alcotest.test_case "MMIO disk reports a refused transfer" `Quick
            test_mmio_disk_refusal;
          no_escape_prop;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "TBIS discipline" `Quick test_tbis_discipline;
          Alcotest.test_case "PROBE with invalid VM PTE emulated" `Quick
            test_probe_invalid_pte_emulated;
        ] );
      ( "exit path",
        [
          Alcotest.test_case "one-translation frame push equivalence" `Quick
            test_frame_push_equivalence;
          Alcotest.test_case "registers survive VM switches" `Quick
            test_registers_survive_switches;
        ] );
    ]
