(* Unit tests for the CPU: instruction semantics, exceptions, CHM/REI,
   privilege rules, and the modified-VAX microcode behaviours. *)

open Vax_arch
open Vax_cpu
module Asm = Vax_asm.Asm

let check_word = Alcotest.(check int)

(* Assemble [f] at the given origin, load it at the same physical address
   (MAPEN off), point the PC there, and return the cpu. *)
let boot ?variant ?(origin = 0x1000) f =
  let cpu = Cpu.create ?variant () in
  let a = Asm.create ~origin in
  f a;
  let img = Asm.assemble a in
  Cpu.load cpu img.Asm.image_origin img.Asm.code;
  State.set_pc cpu.Cpu.state origin;
  (* start in kernel mode, IPL 31, on the interrupt stack, like power-on *)
  State.set_sp cpu.Cpu.state 0x2000;
  (cpu, img)

let run_to_halt ?(max = 10_000) cpu =
  match Cpu.run cpu ~max_instructions:max () with
  | Exec.Machine_halted -> ()
  | Exec.Stepped -> Alcotest.fail "instruction budget exhausted"
  | Exec.Stopped -> Alcotest.fail "unexpected stop"

let test_mov_add () =
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 5; Asm.R 0 ];
        Asm.ins a Opcode.Addl2 [ Asm.Imm 3; Asm.R 0 ];
        Asm.ins a Opcode.Subl3 [ Asm.Imm 2; Asm.R 0; Asm.R 1 ];
        Asm.ins a Opcode.Mull2 [ Asm.Imm 10; Asm.R 1 ];
        Asm.ins a Opcode.Halt [])
  in
  run_to_halt cpu;
  check_word "r0" 8 (State.reg cpu.Cpu.state 0);
  check_word "r1" 60 (State.reg cpu.Cpu.state 1)

let test_literal_and_memory () =
  let cpu, img =
    boot (fun a ->
        Asm.ins a Opcode.Moval [ Asm.Abs_label "data"; Asm.R 2 ];
        Asm.ins a Opcode.Movl [ Asm.Deref 2; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 0xDEAD; Asm.Disp (4, 2) ];
        Asm.ins a Opcode.Movl [ Asm.Disp (4, 2); Asm.R 1 ];
        Asm.ins a Opcode.Halt [];
        Asm.align a 4;
        Asm.label a "data";
        Asm.long a 0x12345678;
        Asm.long a 0)
  in
  run_to_halt cpu;
  check_word "loaded" 0x12345678 (State.reg cpu.Cpu.state 0);
  check_word "stored+loaded" 0xDEAD (State.reg cpu.Cpu.state 1);
  check_word "moval" (Asm.lookup img "data") (State.reg cpu.Cpu.state 2)

let test_branches_and_loop () =
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 10; Asm.R 0 ];
        Asm.ins a Opcode.Clrl [ Asm.R 1 ];
        Asm.label a "loop";
        Asm.ins a Opcode.Addl2 [ Asm.R 0; Asm.R 1 ];
        Asm.ins a Opcode.Sobgtr [ Asm.R 0; Asm.Branch "loop" ];
        Asm.ins a Opcode.Halt [])
  in
  run_to_halt cpu;
  check_word "sum 10..1" 55 (State.reg cpu.Cpu.state 1)

let test_autoincrement () =
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Moval [ Asm.Abs_label "tbl"; Asm.R 2 ];
        Asm.ins a Opcode.Clrl [ Asm.R 0 ];
        Asm.ins a Opcode.Addl2 [ Asm.Postinc 2; Asm.R 0 ];
        Asm.ins a Opcode.Addl2 [ Asm.Postinc 2; Asm.R 0 ];
        Asm.ins a Opcode.Addl2 [ Asm.Postinc 2; Asm.R 0 ];
        Asm.ins a Opcode.Halt [];
        Asm.align a 4;
        Asm.label a "tbl";
        Asm.long a 100;
        Asm.long a 20;
        Asm.long a 3)
  in
  run_to_halt cpu;
  check_word "sum" 123 (State.reg cpu.Cpu.state 0)

let test_push_pop_subroutine () =
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 7; Asm.R 0 ];
        Asm.ins a Opcode.Bsbb [ Asm.Branch "double" ];
        Asm.ins a Opcode.Halt [];
        Asm.label a "double";
        Asm.ins a Opcode.Addl2 [ Asm.R 0; Asm.R 0 ];
        Asm.ins a Opcode.Rsb [])
  in
  run_to_halt cpu;
  check_word "doubled" 14 (State.reg cpu.Cpu.state 0)

let test_calls_ret () =
  let cpu, _ =
    boot (fun a ->
        (* push two args, CALLS #2; callee reads 4(AP), 8(AP) *)
        Asm.ins a Opcode.Pushl [ Asm.Imm 30 ];
        Asm.ins a Opcode.Pushl [ Asm.Imm 12 ];
        Asm.ins a Opcode.Calls [ Asm.Imm 2; Asm.Abs_label "sum" ];
        Asm.ins a Opcode.Halt [];
        Asm.label a "sum";
        Asm.ins a Opcode.Addl3 [ Asm.Disp (4, Asm.ap); Asm.Disp (8, Asm.ap); Asm.R 0 ];
        Asm.ins a Opcode.Ret [])
  in
  let sp0 = State.sp cpu.Cpu.state in
  run_to_halt cpu;
  check_word "sum" 42 (State.reg cpu.Cpu.state 0);
  check_word "stack balanced" sp0 (State.sp cpu.Cpu.state)

(* CHMK from user mode through a real SCB, handler REIs back. *)
let test_chmk_rei_roundtrip () =
  let cpu, img =
    boot (fun a ->
        (* kernel setup: SCB at 0x8000 (phys), stacks, then REI to user *)
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "chmk_handler"; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.chmk) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x3000; Asm.Imm (Ipr.to_int Ipr.USP) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2800; Asm.Imm (Ipr.to_int Ipr.KSP) ];
        (* push user PSL (cur=user, prv=user, ipl=0) and PC, then REI *)
        Asm.ins a Opcode.Pushl [ Asm.Imm 0x03C0_0000 ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "user_code"; Asm.Predec Asm.sp ];
        Asm.ins a Opcode.Rei [];
        Asm.label a "user_code";
        Asm.ins a Opcode.Movl [ Asm.Imm 0x111; Asm.R 1 ];
        Asm.ins a Opcode.Chmk [ Asm.Imm 9 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 0x222; Asm.R 2 ];
        Asm.label a "user_spin";
        Asm.ins a Opcode.Brb [ Asm.Branch "user_spin" ];
        Asm.align a 4;
        Asm.label a "chmk_handler";
        (* syscall code is on top of the kernel stack *)
        Asm.ins a Opcode.Movl [ Asm.Deref Asm.sp; Asm.R 3 ];
        Asm.ins a Opcode.Addl2 [ Asm.Imm 4; Asm.R Asm.sp ];
        Asm.ins a Opcode.Rei [])
  in
  ignore img;
  let st = cpu.Cpu.state in
  let rec go n =
    if n = 0 then Alcotest.fail "did not reach user continuation";
    ignore (Cpu.step cpu);
    if State.reg st 2 <> 0x222 then go (n - 1)
  in
  go 500;
  check_word "syscall code seen in kernel" 9 (State.reg st 3);
  check_word "user r1 preserved" 0x111 (State.reg st 1);
  Alcotest.(check string)
    "back in user mode" "user"
    (Mode.name (Psl.cur st.State.psl))

let test_privileged_from_user_faults () =
  (* MTPR in user mode must take a privileged-instruction fault through
     vector 0x10. *)
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "priv_handler"; Asm.R 0 ];
        Asm.ins a Opcode.Movl
          [ Asm.R 0; Asm.Abs (0x8000 + Scb.privileged_instruction) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x3000; Asm.Imm (Ipr.to_int Ipr.USP) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2800; Asm.Imm (Ipr.to_int Ipr.KSP) ];
        Asm.ins a Opcode.Pushl [ Asm.Imm 0x03C0_0000 ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "user_code"; Asm.Predec Asm.sp ];
        Asm.ins a Opcode.Rei [];
        Asm.label a "user_code";
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0; Asm.Imm (Ipr.to_int Ipr.IPL) ];
        Asm.align a 4;
        Asm.label a "priv_handler";
        Asm.ins a Opcode.Movl [ Asm.Imm 0xBAD; Asm.R 5 ];
        Asm.ins a Opcode.Halt [])
  in
  run_to_halt cpu;
  check_word "handler ran" 0xBAD (State.reg cpu.Cpu.state 5)

let test_movpsl_hides_vm_bit () =
  (* Even with PSL<VM> forced on (virtualizing variant), MOVPSL must not
     reveal it. *)
  let cpu, _ =
    boot ~variant:Variant.Virtualizing (fun a ->
        Asm.ins a Opcode.Movpsl [ Asm.R 0 ];
        Asm.ins a Opcode.Halt [])
  in
  let st = cpu.Cpu.state in
  st.State.psl <- Psl.with_ipl st.State.psl 0;
  check_word "vm bit clear in movpsl" 0
    (Word.logand (Microcode.movpsl_value st) Psl.vm_bit_mask);
  run_to_halt cpu;
  check_word "movpsl result has no vm bit" 0
    (Word.logand (State.reg st 0) Psl.vm_bit_mask)

let test_rei_cannot_increase_privilege () =
  (* From user mode, REI to a kernel-mode PSL must take a reserved
     operand fault, not switch modes. *)
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "roprand"; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.reserved_operand) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x3000; Asm.Imm (Ipr.to_int Ipr.USP) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2800; Asm.Imm (Ipr.to_int Ipr.KSP) ];
        Asm.ins a Opcode.Pushl [ Asm.Imm 0x03C0_0000 ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "user_code"; Asm.Predec Asm.sp ];
        Asm.ins a Opcode.Rei [];
        Asm.label a "user_code";
        (* attempt REI to kernel PSL *)
        Asm.ins a Opcode.Pushl [ Asm.Imm 0 ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "user_code"; Asm.Predec Asm.sp ];
        Asm.ins a Opcode.Rei [];
        Asm.align a 4;
        Asm.label a "roprand";
        Asm.ins a Opcode.Movl [ Asm.Imm 0xFA17; Asm.R 5 ];
        Asm.ins a Opcode.Halt [])
  in
  run_to_halt cpu;
  check_word "reserved operand handler ran" 0xFA17 (State.reg cpu.Cpu.state 5)

let test_arithmetic_divide_by_zero () =
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "arith"; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.arithmetic) ];
        Asm.ins a Opcode.Movl [ Asm.Imm 10; Asm.R 1 ];
        Asm.ins a Opcode.Divl2 [ Asm.Imm 0; Asm.R 1 ];
        Asm.ins a Opcode.Halt [];
        Asm.align a 4;
        Asm.label a "arith";
        (* arithmetic trap pushes a type code *)
        Asm.ins a Opcode.Movl [ Asm.Deref Asm.sp; Asm.R 5 ];
        Asm.ins a Opcode.Halt [])
  in
  run_to_halt cpu;
  check_word "divide-by-zero code" 2 (State.reg cpu.Cpu.state 5)


(* --- process context, interrupts, PSW --- *)

let test_ldpctx_svpctx_roundtrip () =
  (* build a PCB by hand, LDPCTX it, REI into the "process", CHMK back,
     SVPCTX, and verify the PCB captured the state *)
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "chmk_h"; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.chmk) ];
        (* PCB at 0x6000: KSP=0x2800 USP=0x3000 R5=0x55 PC=proc PSL=user,
           and a P0BR in S space, which LDPCTX requires as MTPR does *)
        Asm.ins a Opcode.Movl [ Asm.Imm 0x2800; Asm.Abs 0x6000 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 0x8000_0000; Asm.Abs (0x6000 + Pcb.p0br) ];
        Asm.ins a Opcode.Movl [ Asm.Imm 0x3000; Asm.Abs 0x600C ];
        Asm.ins a Opcode.Movl [ Asm.Imm 0x55; Asm.Abs (0x6000 + 16 + 20) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "proc"; Asm.R 1 ];
        Asm.ins a Opcode.Movl [ Asm.R 1; Asm.Abs (0x6000 + 72) ];
        Asm.ins a Opcode.Movl [ Asm.Imm 0x03C0_0000; Asm.Abs (0x6000 + 76) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x6000; Asm.Imm (Ipr.to_int Ipr.PCBB) ];
        Asm.ins a Opcode.Ldpctx [];
        Asm.ins a Opcode.Rei [];
        Asm.label a "proc";
        Asm.ins a Opcode.Movl [ Asm.Imm 0x99; Asm.R 6 ];
        Asm.ins a Opcode.Chmk [ Asm.Imm 0 ];
        Asm.label a "pspin";
        Asm.ins a Opcode.Brb [ Asm.Branch "pspin" ];
        Asm.align a 4;
        Asm.label a "chmk_h";
        Asm.ins a Opcode.Addl2 [ Asm.Imm 4; Asm.R Asm.sp ];
        Asm.ins a Opcode.Svpctx [];
        Asm.ins a Opcode.Halt [])
  in
  run_to_halt cpu;
  let phys = cpu.Cpu.phys in
  let rd off = Vax_mem.Phys_mem.read_long phys (0x6000 + off) in
  check_word "R5 loaded and saved" 0x55 (rd (16 + 20));
  check_word "R6 captured by SVPCTX" 0x99 (rd (16 + 24));
  Alcotest.(check bool)
    "saved PSL is user mode" true
    (Psl.cur (rd 76) = Mode.User);
  Alcotest.(check bool) "back on interrupt stack" true
    (Psl.is cpu.Cpu.state.State.psl)

let test_software_interrupt_priority () =
  (* request levels 3 and 7; level 7 must be delivered first, and only
     when IPL drops below it *)
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "h3"; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.software_interrupt 3) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "h7"; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.software_interrupt 7) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2800; Asm.Imm (Ipr.to_int Ipr.KSP) ];
        Asm.ins a Opcode.Clrl [ Asm.R 5 ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 10; Asm.Imm (Ipr.to_int Ipr.IPL) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 3; Asm.Imm (Ipr.to_int Ipr.SIRR) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 7; Asm.Imm (Ipr.to_int Ipr.SIRR) ];
        (* nothing deliverable at IPL 10 *)
        Asm.ins a Opcode.Movl [ Asm.Imm 1; Asm.R 4 ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0; Asm.Imm (Ipr.to_int Ipr.IPL) ];
        Asm.ins a Opcode.Nop [];
        Asm.ins a Opcode.Nop [];
        Asm.ins a Opcode.Halt [];
        Asm.align a 4;
        Asm.label a "h7";
        (* first delivery: R5 must still be 0 *)
        Asm.ins a Opcode.Mull2 [ Asm.Imm 10; Asm.R 5 ];
        Asm.ins a Opcode.Addl2 [ Asm.Imm 7; Asm.R 5 ];
        Asm.ins a Opcode.Rei [];
        Asm.align a 4;
        Asm.label a "h3";
        Asm.ins a Opcode.Mull2 [ Asm.Imm 10; Asm.R 5 ];
        Asm.ins a Opcode.Addl2 [ Asm.Imm 3; Asm.R 5 ];
        Asm.ins a Opcode.Rei [])
  in
  run_to_halt cpu;
  (* 7 first, then 3: 7*10+3 = 73 *)
  check_word "delivery order by priority" 73 (State.reg cpu.Cpu.state 5);
  check_word "held while IPL high" 1 (State.reg cpu.Cpu.state 4)

let test_bispsw_bicpsw () =
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Bispsw [ Asm.Imm 0x0F ];
        Asm.ins a Opcode.Movpsl [ Asm.R 0 ];
        Asm.ins a Opcode.Bicpsw [ Asm.Imm 0x05 ];
        Asm.ins a Opcode.Movpsl [ Asm.R 1 ];
        Asm.ins a Opcode.Halt [])
  in
  run_to_halt cpu;
  check_word "all cc set" 0x0F (State.reg cpu.Cpu.state 0 land 0x0F);
  check_word "C and Z cleared" 0x0A (State.reg cpu.Cpu.state 1 land 0x0F)

let test_bispsw_reserved_operand_on_high_bits () =
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "ro"; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.reserved_operand) ];
        Asm.ins a Opcode.Bispsw [ Asm.Imm 0x100 ];
        Asm.ins a Opcode.Halt [];
        Asm.align a 4;
        Asm.label a "ro";
        Asm.ins a Opcode.Movl [ Asm.Imm 0xABC; Asm.R 5 ];
        Asm.ins a Opcode.Halt [])
  in
  run_to_halt cpu;
  check_word "reserved operand taken" 0xABC (State.reg cpu.Cpu.state 5)

let test_movpsl_reports_prv () =
  (* after CHMS from user, PSL<PRV> must read as user in the handler *)
  let cpu, _ =
    boot (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "sh"; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.chms) ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "kh"; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.chmk) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x3000; Asm.Imm (Ipr.to_int Ipr.USP) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2C00; Asm.Imm (Ipr.to_int Ipr.SSP) ];
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2800; Asm.Imm (Ipr.to_int Ipr.KSP) ];
        Asm.ins a Opcode.Pushl [ Asm.Imm 0x03C0_0000 ];
        Asm.ins a Opcode.Moval [ Asm.Abs_label "u"; Asm.Predec Asm.sp ];
        Asm.ins a Opcode.Rei [];
        Asm.label a "u";
        Asm.ins a Opcode.Chms [ Asm.Imm 0 ];
        Asm.label a "uspin";
        Asm.ins a Opcode.Brb [ Asm.Branch "uspin" ];
        Asm.align a 4;
        Asm.label a "sh";
        Asm.ins a Opcode.Movpsl [ Asm.R 5 ];
        (* HALT is privileged: hop to kernel mode to stop the machine *)
        Asm.ins a Opcode.Chmk [ Asm.Imm 0 ];
        Asm.align a 4;
        Asm.label a "kh";
        Asm.ins a Opcode.Halt [])
  in
  run_to_halt cpu;
  let p = State.reg cpu.Cpu.state 5 in
  Alcotest.(check string) "cur" "supervisor" (Mode.name (Psl.cur p));
  Alcotest.(check string) "prv" "user" (Mode.name (Psl.prv p))

let () =
  Alcotest.run "vax_cpu"
    [
      ( "exec",
        [
          Alcotest.test_case "mov/add/sub/mul" `Quick test_mov_add;
          Alcotest.test_case "literal and memory operands" `Quick
            test_literal_and_memory;
          Alcotest.test_case "branches and loops" `Quick test_branches_and_loop;
          Alcotest.test_case "autoincrement" `Quick test_autoincrement;
          Alcotest.test_case "bsbb/rsb" `Quick test_push_pop_subroutine;
          Alcotest.test_case "calls/ret" `Quick test_calls_ret;
        ] );
      ( "modes",
        [
          Alcotest.test_case "CHMK/REI roundtrip" `Quick test_chmk_rei_roundtrip;
          Alcotest.test_case "privileged instr faults from user" `Quick
            test_privileged_from_user_faults;
          Alcotest.test_case "MOVPSL hides PSL<VM>" `Quick
            test_movpsl_hides_vm_bit;
          Alcotest.test_case "REI cannot increase privilege" `Quick
            test_rei_cannot_increase_privilege;
          Alcotest.test_case "divide by zero trap" `Quick
            test_arithmetic_divide_by_zero;
        ] );
      ( "context+interrupts",
        [
          Alcotest.test_case "LDPCTX/SVPCTX roundtrip" `Quick
            test_ldpctx_svpctx_roundtrip;
          Alcotest.test_case "software interrupt priority" `Quick
            test_software_interrupt_priority;
          Alcotest.test_case "BISPSW/BICPSW" `Quick test_bispsw_bicpsw;
          Alcotest.test_case "BISPSW rejects non-PSW bits" `Quick
            test_bispsw_reserved_operand_on_high_bits;
          Alcotest.test_case "MOVPSL reports CUR and PRV" `Quick
            test_movpsl_reports_prv;
        ] );
    ]
