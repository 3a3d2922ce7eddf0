open Vax_arch
open Vax_asm

type profile = Vms_like | Unix_like

type program = {
  prog_name : string;
  prog_image : Asm.image;
  prog_data_pages : int;
}

type built = {
  images : (int * bytes) list;
  entry : int;
  memsize : int;
  kernel : Asm.image;
  code_images : (string * Asm.image) list;
}

let max_processes = 8
let max_code_pages = 64
let max_data_pages = 32

(* ------------------------------------------------------------------ *)
(* Physical layout (see the .mli)                                      *)

let scb_phys = 0x400
let kdata_phys = 0x600
let istack_top = 0xC00
let stub_phys = 0xE00
let kcode_phys = 0x1000
let kcode_limit = 0x4000
let spt_phys = 0x4000
let pcb_base = 0x4800
let kstack_base = 0x5000 (* 2 pages per process *)
let p0t_base = 0x7000 (* 2 pages per process: 128 entries *)
let p1t_base = 0x9000 (* 1 page per process: 128 entries *)
let estack_base = 0xB000 (* 1 page per process *)
let sstack_base = 0xC000 (* 1 page per process *)
let prog_base = 0xE000

let s_base = 0x8000_0000
let sva x = s_base + x
let kdata_sva = sva kdata_phys

(* kernel data cells (offsets within the kdata page) *)
let c_uptime = kdata_sva + 0
let c_current = kdata_sva + 4
let c_nproc = kdata_sva + 8
let c_quantum = kdata_sva + 12
let c_free_next = kdata_sva + 16
let c_free_limit = kdata_sva + 20
let c_is_virtual = kdata_sva + 24
let c_probed_memsize = kdata_sva + 28
let c_io_packet = kdata_sva + 32 (* 16 bytes *)
let io_packet_phys = kdata_phys + 32
let c_use_mmio = kdata_sva + 112
let c_state = kdata_sva + 48 (* 8 longs *)
let _c_wake = kdata_sva + 80 (* 8 longs; addressed via [wake_minus_state] *)
let wake_minus_state = 32

let pte_bits ?(valid = true) ?(m = false) ?(sw = 0) prot =
  Pte.make ~valid ~modify:m ~sw ~prot ~pfn:0 ()

(* P1 stack geometry: 16 demand-zero pages at the top of P1 *)
let user_stack_pages = 16
let p1_entries = 128
let p1_first = (1 lsl Addr.vpn_width) - p1_entries
let p1lr_value = (1 lsl Addr.vpn_width) - user_stack_pages

(* ------------------------------------------------------------------ *)
(* Assembly helpers                                                    *)

let ii a op ops = Asm.ins a op ops
let label = Asm.label

(* Skip labels are drawn from the assembler's own fresh-label counter:
   builds share no mutable state, so concurrent fleets assembling the
   same workload on different domains produce identical images. *)
let fresh_skip a = Asm.fresh_label ~prefix:"sk" a

let jmp_abs a l = ii a Opcode.Jmp [ Asm.Abs_label l ]

(* far conditional branch: invert the condition over a JMP *)
let far a cond l =
  let sk = fresh_skip a in
  let inverse =
    match cond with
    | `Eql -> Opcode.Bneq
    | `Neq -> Opcode.Beql
    | `Lss -> Opcode.Bgeq
    | `Geq -> Opcode.Blss
    | `Gtr -> Opcode.Bleq
    | `Leq -> Opcode.Bgtr
  in
  ii a inverse [ Asm.Branch sk ];
  jmp_abs a l;
  label a sk

let push a r = ii a Opcode.Pushl [ Asm.R r ]
let pop a r = ii a Opcode.Movl [ Asm.Postinc Asm.sp; Asm.R r ]
let mtpr_imm a v reg = ii a Opcode.Mtpr [ Asm.Imm v; Asm.Imm (Ipr.to_int reg) ]
let mtpr_reg a r reg = ii a Opcode.Mtpr [ Asm.R r; Asm.Imm (Ipr.to_int reg) ]
let mfpr a reg r = ii a Opcode.Mfpr [ Asm.Imm (Ipr.to_int reg); Asm.R r ]
let rei a = ii a Opcode.Rei []

(* state-cell address of process index in [ri] -> register [rd] *)
let state_addr a ~ri ~rd =
  ii a Opcode.Ashl [ Asm.Imm 2; Asm.R ri; Asm.R rd ];
  ii a Opcode.Addl2 [ Asm.Imm c_state; Asm.R rd ]

(* ------------------------------------------------------------------ *)
(* Boot stub: runs with memory management off at [stub_phys]           *)

let build_stub ~memsize =
  let a = Asm.create ~origin:stub_phys in
  (* one PTE-filling loop: entries [first,first+count) at prot [base] *)
  let fill ~first ~count ~base =
    ii a Opcode.Movl [ Asm.Imm (spt_phys + (4 * first)); Asm.R 0 ];
    ii a Opcode.Movl [ Asm.Imm first; Asm.R 1 ];
    let l = fresh_skip a in
    label a l;
    ii a Opcode.Movl [ Asm.Imm base; Asm.R 2 ];
    ii a Opcode.Bisl2 [ Asm.R 1; Asm.R 2 ];
    ii a Opcode.Movl [ Asm.R 2; Asm.Postinc 0 ];
    ii a Opcode.Incl [ Asm.R 1 ];
    ii a Opcode.Cmpl [ Asm.R 1; Asm.Imm (first + count) ];
    ii a Opcode.Bneq [ Asm.Branch l ]
  in
  (* whole memory KW with M set (the kernel's own pages must never take
     modify faults: service stacks are pushed to by microcode) *)
  fill ~first:0 ~count:memsize ~base:(pte_bits ~m:true Protection.KW);
  (* kernel code user-readable (system code is executed from the outer
     modes via the CHM services) *)
  fill ~first:(kcode_phys / 512) ~count:((kcode_limit - kcode_phys) / 512)
    ~base:(pte_bits ~m:true Protection.UR);
  (* per-process executive and supervisor stacks *)
  fill ~first:(estack_base / 512) ~count:max_processes
    ~base:(pte_bits ~m:true Protection.EW);
  fill ~first:(sstack_base / 512) ~count:max_processes
    ~base:(pte_bits ~m:true Protection.SW);
  (* the I/O page, mapped just past physical memory *)
  ii a Opcode.Movl
    [
      Asm.Imm
        (Pte.make ~valid:true ~modify:true ~prot:Protection.KW
           ~pfn:(Vax_mem.Phys_mem.io_space_base lsr Addr.page_shift)
           ());
      Asm.Abs (spt_phys + (4 * memsize));
    ];
  (* identity P0 window so the fetch stream survives MAPEN going on *)
  mtpr_imm a (sva spt_phys) Ipr.P0BR;
  mtpr_imm a memsize Ipr.P0LR;
  mtpr_imm a spt_phys Ipr.SBR;
  mtpr_imm a (memsize + 1) Ipr.SLR;
  mtpr_imm a 1 Ipr.MAPEN;
  ii a Opcode.Jmp [ Asm.Abs (sva kcode_phys) ];
  Asm.assemble a

(* ------------------------------------------------------------------ *)
(* The kernel proper, linked at its S address                          *)

let build_kernel ~profile ~tick ~quantum ~memsize ~nproc ~first_free ~force_mmio =
  let a = Asm.create ~origin:(sva kcode_phys) in
  let io_page_sva = sva (memsize * 512) in

  (* --------------- boot --------------- *)
  label a "kentry";
  mtpr_imm a scb_phys Ipr.SCBB;
  mtpr_imm a (sva istack_top) Ipr.ISP;
  (* SCB entries *)
  let vector v handler ~is =
    ii a Opcode.Moval [ Asm.Abs_label handler; Asm.R 0 ];
    if is then ii a Opcode.Bisl2 [ Asm.Imm 1; Asm.R 0 ];
    ii a Opcode.Movl [ Asm.R 0; Asm.Abs (sva scb_phys + v) ]
  in
  vector Scb.machine_check "fatal" ~is:true;
  vector Scb.kernel_stack_not_valid "fatal" ~is:true;
  vector Scb.power_fail "fatal" ~is:true;
  vector Scb.privileged_instruction "kill0" ~is:false;
  vector Scb.customer_reserved_instruction "kill0" ~is:false;
  vector Scb.reserved_operand "kill0" ~is:false;
  vector Scb.reserved_addressing_mode "kill0" ~is:false;
  vector Scb.access_violation "acv" ~is:false;
  vector Scb.translation_not_valid
    (match profile with Vms_like -> "pagefault" | Unix_like -> "kill2")
    ~is:false;
  vector Scb.trace_pending "fatal" ~is:false;
  vector Scb.breakpoint "kill0" ~is:false;
  vector Scb.arithmetic "kill1" ~is:false;
  vector Scb.chmk "syscall" ~is:false;
  vector Scb.chme
    (match profile with Vms_like -> "rms" | Unix_like -> "kill0")
    ~is:false;
  vector Scb.chms
    (match profile with Vms_like -> "cli" | Unix_like -> "kill0")
    ~is:false;
  vector Scb.chmu "kill0" ~is:false;
  vector Scb.modify_fault "modifyflt" ~is:false;
  vector (Scb.software_interrupt 3) "resched" ~is:false;
  vector Scb.interval_timer "timer_isr" ~is:true;
  vector Scb.console_receive "dismiss_isr" ~is:true;
  vector Scb.console_transmit "dismiss_isr" ~is:true;
  vector Scb.disk "dismiss_isr" ~is:true;
  (* SID: are we a virtual VAX? *)
  mfpr a Ipr.SID 0;
  ii a Opcode.Cmpl [ Asm.R 0; Asm.Imm Vax_cpu.State.sid_virtual_vax ];
  ii a Opcode.Bneq [ Asm.Branch "boot_real" ];
  ii a Opcode.Movl [ Asm.Imm 1; Asm.Abs c_is_virtual ];
  mfpr a Ipr.MEMSIZE 1;
  ii a Opcode.Movl [ Asm.R 1; Asm.Abs c_probed_memsize ];
  ii a Opcode.Brb [ Asm.Branch "boot_cont" ];
  label a "boot_real";
  ii a Opcode.Clrl [ Asm.Abs c_is_virtual ];
  ii a Opcode.Movl [ Asm.Imm memsize; Asm.Abs c_probed_memsize ];
  label a "boot_cont";
  (* I/O discipline: memory-mapped CSRs on a real VAX, KCALL start-I/O on
     a virtual one — unless the build forces MMIO (experiment E5) *)
  (if force_mmio then ii a Opcode.Movl [ Asm.Imm 1; Asm.Abs c_use_mmio ]
   else begin
     ii a Opcode.Movl [ Asm.Imm 1; Asm.R 2 ];
     ii a Opcode.Subl2 [ Asm.Abs c_is_virtual; Asm.R 2 ];
     ii a Opcode.Movl [ Asm.R 2; Asm.Abs c_use_mmio ]
   end);
  (* cells *)
  ii a Opcode.Clrl [ Asm.Abs c_uptime ];
  ii a Opcode.Clrl [ Asm.Abs c_current ];
  ii a Opcode.Movl [ Asm.Imm nproc; Asm.Abs c_nproc ];
  ii a Opcode.Movl [ Asm.Imm quantum; Asm.Abs c_quantum ];
  ii a Opcode.Movl [ Asm.Imm first_free; Asm.Abs c_free_next ];
  ii a Opcode.Movl [ Asm.Imm memsize; Asm.Abs c_free_limit ];
  (* processes beyond nproc are marked exited *)
  for i = nproc to max_processes - 1 do
    ii a Opcode.Movl [ Asm.Imm 2; Asm.Abs (c_state + (4 * i)) ]
  done;
  (* interval timer on *)
  mtpr_imm a tick Ipr.NICR;
  mtpr_imm a 0x41 Ipr.ICCS;
  (* run process 0 *)
  mtpr_imm a pcb_base Ipr.PCBB;
  ii a Opcode.Ldpctx [];
  rei a;

  (* --------------- fatal / dismiss --------------- *)
  Asm.align a 4;
  label a "fatal";
  ii a Opcode.Halt [];
  Asm.align a 4;
  label a "dismiss_isr";
  rei a;

  (* --------------- kill handlers --------------- *)
  (* kill the current process from an exception with [nparams]
     parameters; a kernel-mode fault is fatal instead *)
  let make_kill name nparams =
    Asm.align a 4;
    label a name;
    push a 0;
    push a 1;
    (* saved PSL at 8 + 4*nparams + 4 *)
    ii a Opcode.Movl [ Asm.Disp (8 + (4 * nparams) + 4, Asm.sp); Asm.R 0 ];
    ii a Opcode.Bicl2 [ Asm.Imm (lnot 0x0300_0000 land 0xFFFF_FFFF); Asm.R 0 ];
    far a `Eql "fatal";
    (* mark exited, request reschedule *)
    ii a Opcode.Movl [ Asm.Abs c_current; Asm.R 0 ];
    state_addr a ~ri:0 ~rd:1;
    ii a Opcode.Movl [ Asm.Imm 2; Asm.Deref 1 ];
    mtpr_imm a 3 Ipr.SIRR;
    pop a 1;
    pop a 0;
    if nparams > 0 then
      ii a Opcode.Addl2 [ Asm.Imm (4 * nparams); Asm.R Asm.sp ];
    rei a
  in
  make_kill "kill0" 0;
  make_kill "kill1" 1;
  make_kill "kill2" 2;
  make_kill "acv" 2;

  (* --------------- demand-zero page fault --------------- *)
  (* locate the PTE for the VA in [r0] through P0BR/P1BR; result in r3;
     jumps to [bad] for S-region or reserved-region addresses *)
  let locate_pte ~bad =
    ii a Opcode.Bicl3 [ Asm.Imm 0x3FFF_FFFF; Asm.R 0; Asm.R 1 ];
    let p0 = fresh_skip a and join = fresh_skip a in
    ii a Opcode.Beql [ Asm.Branch p0 ];
    ii a Opcode.Cmpl [ Asm.R 1; Asm.Imm 0x4000_0000 ];
    far a `Neq bad;
    mfpr a Ipr.P1BR 2;
    ii a Opcode.Brb [ Asm.Branch join ];
    label a p0;
    mfpr a Ipr.P0BR 2;
    label a join;
    ii a Opcode.Bicl3
      [ Asm.Imm (lnot 0x3FFF_FE00 land 0xFFFF_FFFF); Asm.R 0; Asm.R 3 ];
    ii a Opcode.Ashl [ Asm.Imm (-7); Asm.R 3; Asm.R 3 ];
    ii a Opcode.Addl2 [ Asm.R 2; Asm.R 3 ]
  in
  if profile = Vms_like then begin
    Asm.align a 4;
    label a "pagefault";
    push a 0; push a 1; push a 2; push a 3; push a 4; push a 5;
    ii a Opcode.Movl [ Asm.Disp (28, Asm.sp); Asm.R 0 ];
    locate_pte ~bad:"fatal";
    ii a Opcode.Movl [ Asm.Deref 3; Asm.R 4 ];
    (* demand-zero marker: PTE<21> *)
    ii a Opcode.Bicl3
      [ Asm.Imm (lnot (1 lsl 21) land 0xFFFF_FFFF); Asm.R 4; Asm.R 5 ];
    far a `Eql "pf_kill";
    (* allocate a frame *)
    ii a Opcode.Movl [ Asm.Abs c_free_next; Asm.R 5 ];
    ii a Opcode.Cmpl [ Asm.R 5; Asm.Abs c_free_limit ];
    far a `Geq "fatal" (* out of memory *);
    ii a Opcode.Incl [ Asm.Abs c_free_next ];
    (* zero it through its S alias *)
    ii a Opcode.Ashl [ Asm.Imm 9; Asm.R 5; Asm.R 1 ];
    ii a Opcode.Bisl2 [ Asm.Imm s_base; Asm.R 1 ];
    ii a Opcode.Movl [ Asm.Imm 128; Asm.R 2 ];
    label a "pf_zero";
    ii a Opcode.Clrl [ Asm.Postinc 1 ];
    ii a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "pf_zero" ];
    (* install: valid, UW, M clear (first write takes a modify fault) *)
    ii a Opcode.Movl [ Asm.Imm (pte_bits Protection.UW); Asm.R 4 ];
    ii a Opcode.Bisl2 [ Asm.R 5; Asm.R 4 ];
    ii a Opcode.Movl [ Asm.R 4; Asm.Deref 3 ];
    ii a Opcode.Mtpr [ Asm.Disp (28, Asm.sp); Asm.Imm (Ipr.to_int Ipr.TBIS) ];
    pop a 5; pop a 4; pop a 3; pop a 2; pop a 1; pop a 0;
    ii a Opcode.Addl2 [ Asm.Imm 8; Asm.R Asm.sp ];
    rei a;
    label a "pf_kill";
    pop a 5; pop a 4; pop a 3; pop a 2; pop a 1; pop a 0;
    jmp_abs a "kill2"
  end;

  (* --------------- modify fault --------------- *)
  Asm.align a 4;
  label a "modifyflt";
  push a 0; push a 1; push a 2; push a 3;
  ii a Opcode.Movl [ Asm.Disp (20, Asm.sp); Asm.R 0 ];
  locate_pte ~bad:"fatal";
  ii a Opcode.Bisl2 [ Asm.Imm (1 lsl 26); Asm.Deref 3 ];
  ii a Opcode.Mtpr [ Asm.Disp (20, Asm.sp); Asm.Imm (Ipr.to_int Ipr.TBIS) ];
  pop a 3; pop a 2; pop a 1; pop a 0;
  ii a Opcode.Addl2 [ Asm.Imm 8; Asm.R Asm.sp ];
  rei a;

  (* --------------- interval timer --------------- *)
  Asm.align a 4;
  label a "timer_isr";
  push a 0; push a 1; push a 2;
  mtpr_imm a 0xC1 Ipr.ICCS;
  ii a Opcode.Incl [ Asm.Abs c_uptime ];
  (* wake sleepers *)
  ii a Opcode.Movl [ Asm.Abs c_nproc; Asm.R 0 ];
  ii a Opcode.Clrl [ Asm.R 1 ];
  label a "tw_loop";
  state_addr a ~ri:1 ~rd:2;
  ii a Opcode.Cmpl [ Asm.Deref 2; Asm.Imm 1 ];
  ii a Opcode.Bneq [ Asm.Branch "tw_next" ];
  ii a Opcode.Cmpl [ Asm.Abs c_uptime; Asm.Disp (wake_minus_state, 2) ];
  ii a Opcode.Blss [ Asm.Branch "tw_next" ];
  ii a Opcode.Clrl [ Asm.Deref 2 ];
  label a "tw_next";
  ii a Opcode.Incl [ Asm.R 1 ];
  ii a Opcode.Sobgtr [ Asm.R 0; Asm.Branch "tw_loop" ];
  (* quantum accounting *)
  ii a Opcode.Decl [ Asm.Abs c_quantum ];
  ii a Opcode.Bgtr [ Asm.Branch "tq_done" ];
  ii a Opcode.Movl [ Asm.Imm quantum; Asm.Abs c_quantum ];
  mtpr_imm a 3 Ipr.SIRR;
  label a "tq_done";
  pop a 2; pop a 1; pop a 0;
  rei a;

  (* --------------- rescheduler (software interrupt 3) --------------- *)
  Asm.align a 4;
  label a "resched";
  ii a Opcode.Svpctx [];
  ii a Opcode.Movl [ Asm.Abs c_current; Asm.R 0 ];
  ii a Opcode.Movl [ Asm.Abs c_nproc; Asm.R 2 ];
  label a "rs_loop";
  ii a Opcode.Incl [ Asm.R 0 ];
  ii a Opcode.Cmpl [ Asm.R 0; Asm.Abs c_nproc ];
  ii a Opcode.Blss [ Asm.Branch "rs_chk" ];
  ii a Opcode.Clrl [ Asm.R 0 ];
  label a "rs_chk";
  state_addr a ~ri:0 ~rd:3;
  ii a Opcode.Tstl [ Asm.Deref 3 ];
  far a `Eql "rs_found";
  ii a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "rs_loop" ];
  (* idle: wait for a sleeper to wake, or halt when all have exited.
     Stay at the rescheduling synchronization level (IPL 3): the timer
     can still interrupt, but the reschedule software interrupt cannot
     re-enter us and clobber the current PCB with idle-loop context. *)
  mtpr_imm a 3 Ipr.IPL;
  label a "rs_idle";
  ii a Opcode.Movl [ Asm.Abs c_nproc; Asm.R 2 ];
  ii a Opcode.Clrl [ Asm.R 0 ];
  label a "rs_scan";
  state_addr a ~ri:0 ~rd:3;
  ii a Opcode.Tstl [ Asm.Deref 3 ];
  far a `Eql "rs_found";
  ii a Opcode.Incl [ Asm.R 0 ];
  ii a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "rs_scan" ];
  (* any non-exited process left? *)
  ii a Opcode.Movl [ Asm.Abs c_nproc; Asm.R 2 ];
  ii a Opcode.Clrl [ Asm.R 0 ];
  ii a Opcode.Clrl [ Asm.R 4 ];
  label a "rs_scan2";
  state_addr a ~ri:0 ~rd:3;
  ii a Opcode.Cmpl [ Asm.Deref 3; Asm.Imm 2 ];
  ii a Opcode.Beql [ Asm.Branch "rs_sk2" ];
  ii a Opcode.Movl [ Asm.Imm 1; Asm.R 4 ];
  label a "rs_sk2";
  ii a Opcode.Incl [ Asm.R 0 ];
  ii a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "rs_scan2" ];
  ii a Opcode.Tstl [ Asm.R 4 ];
  far a `Eql "fatal_done" (* all processes exited: shut down *);
  (* sleepers remain: idle — WAIT on a virtual VAX, spin otherwise *)
  ii a Opcode.Tstl [ Asm.Abs c_is_virtual ];
  ii a Opcode.Beql [ Asm.Branch "rs_spin" ];
  ii a Opcode.Wait [];
  ii a Opcode.Brb [ Asm.Branch "rs_idle" ];
  label a "rs_spin";
  ii a Opcode.Nop [];
  ii a Opcode.Brb [ Asm.Branch "rs_idle" ];
  label a "rs_found";
  (* back to scheduling level: REI may only lower the IPL, and the
     resumed context may have been preempted at any level *)
  mtpr_imm a 31 Ipr.IPL;
  ii a Opcode.Movl [ Asm.R 0; Asm.Abs c_current ];
  ii a Opcode.Movl [ Asm.Imm quantum; Asm.Abs c_quantum ];
  ii a Opcode.Ashl [ Asm.Imm 7; Asm.R 0; Asm.R 1 ];
  ii a Opcode.Addl2 [ Asm.Imm pcb_base; Asm.R 1 ];
  mtpr_reg a 1 Ipr.PCBB;
  ii a Opcode.Ldpctx [];
  rei a;
  Asm.align a 4;
  label a "fatal_done";
  ii a Opcode.Halt [];

  (* --------------- CHMK system services --------------- *)
  Asm.align a 4;
  label a "syscall";
  (* frame: [code][pc][psl]; r1/r2 carry arguments, r0 the result *)
  push a 3;
  push a 4;
  push a 5;
  mtpr_imm a 2 Ipr.IPL (* VMS-style synchronization level *);
  ii a Opcode.Movl [ Asm.Disp (12, Asm.sp); Asm.R 3 ];
  let case code target =
    let sk = fresh_skip a in
    ii a Opcode.Cmpl [ Asm.R 3; Asm.Imm code ];
    ii a Opcode.Bneq [ Asm.Branch sk ];
    jmp_abs a target;
    label a sk
  in
  case Userland.Sys.exit "svc_exit";
  case Userland.Sys.putc "svc_putc";
  case Userland.Sys.getpid "svc_getpid";
  case Userland.Sys.uptime "svc_uptime";
  case Userland.Sys.yield "svc_yield";
  case Userland.Sys.sleep "svc_sleep";
  case Userland.Sys.read_block "svc_rdblk";
  case Userland.Sys.write_block "svc_wrblk";
  case Userland.Sys.puts "svc_puts";
  case Userland.Sys.getchar "svc_getchar";
  case Userland.Sys.iplbench "svc_iplbench";
  case Userland.Sys.access "svc_access";
  (* unknown service: kill the caller *)
  pop a 5; pop a 4; pop a 3;
  mtpr_imm a 0 Ipr.IPL;
  jmp_abs a "kill1";

  label a "svc_done";
  mtpr_imm a 0 Ipr.IPL;
  pop a 5; pop a 4; pop a 3;
  ii a Opcode.Addl2 [ Asm.Imm 4; Asm.R Asm.sp ];
  rei a;

  label a "svc_exit";
  ii a Opcode.Movl [ Asm.Abs c_current; Asm.R 4 ];
  state_addr a ~ri:4 ~rd:5;
  ii a Opcode.Movl [ Asm.Imm 2; Asm.Deref 5 ];
  mtpr_imm a 3 Ipr.SIRR;
  jmp_abs a "svc_done";

  label a "svc_putc";
  mtpr_reg a 1 Ipr.TXDB;
  jmp_abs a "svc_done";

  label a "svc_getpid";
  ii a Opcode.Movl [ Asm.Abs c_current; Asm.R 0 ];
  jmp_abs a "svc_done";

  label a "svc_uptime";
  ii a Opcode.Tstl [ Asm.Abs c_is_virtual ];
  ii a Opcode.Beql [ Asm.Branch "svc_upt_real" ];
  (* the VMM maintains time for us (paper §5, "Time") *)
  mfpr a Ipr.UPTIME 0;
  jmp_abs a "svc_done";
  label a "svc_upt_real";
  ii a Opcode.Movl [ Asm.Abs c_uptime; Asm.R 0 ];
  jmp_abs a "svc_done";

  label a "svc_yield";
  mtpr_imm a 3 Ipr.SIRR;
  jmp_abs a "svc_done";

  label a "svc_sleep";
  ii a Opcode.Movl [ Asm.Abs c_uptime; Asm.R 4 ];
  ii a Opcode.Addl2 [ Asm.R 1; Asm.R 4 ];
  ii a Opcode.Movl [ Asm.Abs c_current; Asm.R 5 ];
  state_addr a ~ri:5 ~rd:3;
  ii a Opcode.Movl [ Asm.R 4; Asm.Disp (wake_minus_state, 3) ];
  ii a Opcode.Movl [ Asm.Imm 1; Asm.Deref 3 ];
  mtpr_imm a 3 Ipr.SIRR;
  jmp_abs a "svc_done";

  label a "svc_puts";
  (* r1 = user buffer, r2 = length: check the caller's access first *)
  ii a Opcode.Prober [ Asm.Lit 0; Asm.R 2; Asm.Deref 1 ];
  far a `Eql "svc_badbuf";
  ii a Opcode.Tstl [ Asm.R 2 ];
  far a `Eql "svc_done";
  label a "puts_loop";
  ii a Opcode.Movzbl [ Asm.Postinc 1; Asm.R 4 ];
  mtpr_reg a 4 Ipr.TXDB;
  ii a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "puts_loop" ];
  jmp_abs a "svc_done";
  label a "svc_badbuf";
  ii a Opcode.Mnegl [ Asm.Imm 1; Asm.R 0 ];
  jmp_abs a "svc_done";

  label a "svc_getchar";
  mfpr a Ipr.RXCS 4;
  ii a Opcode.Bicl2 [ Asm.Imm (lnot 0x80 land 0xFFFF_FFFF); Asm.R 4 ];
  ii a Opcode.Beql [ Asm.Branch "svc_nochar" ];
  mfpr a Ipr.RXDB 0;
  jmp_abs a "svc_done";
  label a "svc_nochar";
  ii a Opcode.Mnegl [ Asm.Imm 1; Asm.R 0 ];
  jmp_abs a "svc_done";

  label a "svc_access";
  ii a Opcode.Prober [ Asm.Lit 0; Asm.R 2; Asm.Deref 1 ];
  ii a Opcode.Beql [ Asm.Branch "acc_no" ];
  ii a Opcode.Movl [ Asm.Imm 1; Asm.R 0 ];
  jmp_abs a "svc_done";
  label a "acc_no";
  ii a Opcode.Clrl [ Asm.R 0 ];
  jmp_abs a "svc_done";

  label a "svc_iplbench";
  (* the paper's hottest path: raise and lower the processor IPL *)
  ii a Opcode.Tstl [ Asm.R 1 ];
  far a `Leq "svc_done";
  label a "iplb_loop";
  mtpr_imm a 8 Ipr.IPL;
  mtpr_imm a 2 Ipr.IPL;
  ii a Opcode.Sobgtr [ Asm.R 1; Asm.Branch "iplb_loop" ];
  jmp_abs a "svc_done";

  (* disk I/O: r1 = block number, r2 = page-aligned P0 buffer *)
  let emit_blk ~write name =
    label a name;
    (* alignment and region checks *)
    ii a Opcode.Bicl3 [ Asm.Imm (lnot 0x1FF land 0xFFFF_FFFF); Asm.R 2; Asm.R 4 ];
    far a `Neq "svc_badbuf";
    ii a Opcode.Bicl3 [ Asm.Imm 0x3FFF_FFFF; Asm.R 2; Asm.R 4 ];
    far a `Neq "svc_badbuf";
    (* caller must have write access (DMA lands here) *)
    ii a Opcode.Probew [ Asm.Lit 0; Asm.Imm 512; Asm.Deref 2 ];
    far a `Eql "svc_badbuf";
    (* touch to force residency and the modify bit *)
    ii a Opcode.Movzbl [ Asm.Deref 2; Asm.R 4 ];
    ii a Opcode.Movb [ Asm.R 4; Asm.Deref 2 ];
    (* translate: physical frame from our own P0 page table *)
    ii a Opcode.Bicl3
      [ Asm.Imm (lnot 0x3FFF_FE00 land 0xFFFF_FFFF); Asm.R 2; Asm.R 4 ];
    ii a Opcode.Ashl [ Asm.Imm (-7); Asm.R 4; Asm.R 4 ];
    mfpr a Ipr.P0BR 5;
    ii a Opcode.Addl2 [ Asm.R 5; Asm.R 4 ];
    ii a Opcode.Movl [ Asm.Deref 4; Asm.R 4 ];
    ii a Opcode.Bicl2 [ Asm.Imm (lnot 0x1F_FFFF land 0xFFFF_FFFF); Asm.R 4 ];
    ii a Opcode.Ashl [ Asm.Imm 9; Asm.R 4; Asm.R 4 ] (* physical address *);
    (* device mutual exclusion *)
    mtpr_imm a 21 Ipr.IPL;
    ii a Opcode.Tstl [ Asm.Abs c_use_mmio ];
    ii a Opcode.Bneq [ Asm.Branch (name ^ "_mmio") ];
    (* virtual VAX: start-I/O through the KCALL register (paper §4.4.3) *)
    ii a Opcode.Movl [ Asm.Imm (if write then 2 else 1); Asm.Abs c_io_packet ];
    ii a Opcode.Movl [ Asm.R 1; Asm.Abs (c_io_packet + 4) ];
    ii a Opcode.Movl [ Asm.R 4; Asm.Abs (c_io_packet + 8) ];
    ii a Opcode.Clrl [ Asm.Abs (c_io_packet + 12) ];
    mtpr_imm a io_packet_phys Ipr.KCALL;
    label a (name ^ "_poll");
    ii a Opcode.Tstl [ Asm.Abs (c_io_packet + 12) ];
    ii a Opcode.Beql [ Asm.Branch (name ^ "_poll") ];
    ii a Opcode.Brb [ Asm.Branch (name ^ "_out") ];
    (* real VAX (or MMIO-mode VM): memory-mapped controller *)
    label a (name ^ "_mmio");
    ii a Opcode.Movl [ Asm.R 1; Asm.Abs (io_page_sva + 4) ];
    ii a Opcode.Movl [ Asm.R 4; Asm.Abs (io_page_sva + 8) ];
    ii a Opcode.Movl [ Asm.Imm (if write then 2 else 1); Asm.Abs io_page_sva ];
    label a (name ^ "_mpoll");
    ii a Opcode.Movl [ Asm.Abs io_page_sva; Asm.R 4 ];
    ii a Opcode.Bicl2 [ Asm.Imm (lnot 0x80 land 0xFFFF_FFFF); Asm.R 4 ];
    ii a Opcode.Beql [ Asm.Branch (name ^ "_mpoll") ];
    ii a Opcode.Movl [ Asm.Imm 0x80; Asm.Abs io_page_sva ];
    label a (name ^ "_out");
    mtpr_imm a 2 Ipr.IPL;
    jmp_abs a "svc_done"
  in
  emit_blk ~write:false "svc_rdblk";
  emit_blk ~write:true "svc_wrblk";

  (* --------------- CHME: executive record service --------------- *)
  if profile = Vms_like then begin
    Asm.align a 4;
    label a "rms";
    push a 3; push a 4; push a 5;
    ii a Opcode.Movl [ Asm.Disp (12, Asm.sp); Asm.R 3 ];
    ii a Opcode.Cmpl [ Asm.R 3; Asm.Imm 1 ];
    far a `Neq "rms_done";
    (* probe the *user's* access to the buffer, whatever mode called us *)
    ii a Opcode.Prober [ Asm.Lit 3; Asm.R 2; Asm.Deref 1 ];
    far a `Eql "rms_done";
    (* clamp length, copy into an executive-stack record buffer *)
    ii a Opcode.Cmpl [ Asm.R 2; Asm.Imm 64 ];
    ii a Opcode.Blss [ Asm.Branch "rms_lenok" ];
    ii a Opcode.Movl [ Asm.Imm 63; Asm.R 2 ];
    label a "rms_lenok";
    ii a Opcode.Tstl [ Asm.R 2 ];
    far a `Eql "rms_done";
    ii a Opcode.Subl2 [ Asm.Imm 68; Asm.R Asm.sp ];
    ii a Opcode.Movl [ Asm.R Asm.sp; Asm.R 4 ];
    ii a Opcode.Movl [ Asm.R 2; Asm.R 5 ];
    label a "rms_copy";
    ii a Opcode.Movzbl [ Asm.Postinc 1; Asm.R 3 ];
    ii a Opcode.Movb [ Asm.R 3; Asm.Postinc 4 ];
    ii a Opcode.Sobgtr [ Asm.R 5; Asm.Branch "rms_copy" ];
    ii a Opcode.Movb [ Asm.Imm 10; Asm.Postinc 4 ] (* newline framing *);
    ii a Opcode.Movl [ Asm.R Asm.sp; Asm.R 1 ];
    ii a Opcode.Incl [ Asm.R 2 ];
    Userland.chmk a Userland.Sys.puts;
    ii a Opcode.Addl2 [ Asm.Imm 68; Asm.R Asm.sp ];
    label a "rms_done";
    pop a 5; pop a 4; pop a 3;
    ii a Opcode.Addl2 [ Asm.Imm 4; Asm.R Asm.sp ];
    rei a;

    (* --------------- CHMS: supervisor command service ------------- *)
    Asm.align a 4;
    label a "cli";
    push a 3;
    ii a Opcode.Movl [ Asm.Disp (4, Asm.sp); Asm.R 3 ];
    ii a Opcode.Cmpl [ Asm.R 3; Asm.Imm 1 ];
    far a `Neq "cli_done";
    (* prompt, then route the command through the executive layer *)
    push a 1; push a 2;
    ii a Opcode.Movl [ Asm.Imm (Char.code '$'); Asm.R 1 ];
    Userland.chmk a Userland.Sys.putc;
    ii a Opcode.Movl [ Asm.Imm (Char.code ' '); Asm.R 1 ];
    Userland.chmk a Userland.Sys.putc;
    pop a 2; pop a 1;
    Userland.chme a Userland.record;
    label a "cli_done";
    pop a 3;
    ii a Opcode.Addl2 [ Asm.Imm 4; Asm.R Asm.sp ];
    rei a
  end;

  let img = Asm.assemble a in
  if Bytes.length img.Asm.code > kcode_limit - kcode_phys then
    failwith
      (Printf.sprintf "MiniVMS kernel too large: %d bytes"
         (Bytes.length img.Asm.code));
  img

(* ------------------------------------------------------------------ *)
(* Static tables: PCBs and page tables, built as data                  *)

let put_long b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let build_pcbs ~nproc ~p0lrs =
  let b = Bytes.make (max_processes * 128) '\000' in
  for i = 0 to nproc - 1 do
    let base = i * 128 in
    put_long b (base + Pcb.sp 0) (sva (kstack_base + (i * 0x400) + 0x400)) (* KSP *);
    put_long b (base + Pcb.sp 1) (sva (estack_base + ((i + 1) * 0x200))) (* ESP *);
    put_long b (base + Pcb.sp 2) (sva (sstack_base + ((i + 1) * 0x200))) (* SSP *);
    put_long b (base + Pcb.sp 3) 0x8000_0000 (* USP: top of P1 *);
    (* R0-R13 zero *)
    put_long b (base + Pcb.pc) 0 (* user entry *);
    put_long b (base + Pcb.psl) 0x03C0_0000 (* user/user, IPL 0 *);
    put_long b (base + Pcb.p0br) (sva (p0t_base + (i * 0x400)));
    put_long b (base + Pcb.p0lr) (List.nth p0lrs i);
    put_long b (base + Pcb.p1br) (sva (p1t_base + (i * 0x200)) - (4 * p1_first));
    put_long b (base + Pcb.p1lr) p1lr_value
  done;
  b

let build_page_tables ~profile ~programs ~prog_pfns =
  let p0 = Bytes.make (max_processes * 0x400) '\000' in
  let p1 = Bytes.make (max_processes * 0x200) '\000' in
  let dz_pte = pte_bits ~valid:false ~sw:1 Protection.UW in
  let na_pte = pte_bits ~valid:false Protection.NA in
  List.iteri
    (fun i (p, base_pfn) ->
      let code_pages =
        (Bytes.length p.prog_image.Asm.code + 511) / 512
      in
      let tbl = i * 0x400 in
      for vpn = 0 to 127 do
        let e =
          if vpn < code_pages then
            Pte.make ~valid:true ~modify:true ~prot:Protection.UR
              ~pfn:(base_pfn + vpn) ()
          else if
            vpn >= Userland.data_base / 512
            && vpn < (Userland.data_base / 512) + p.prog_data_pages
          then
            match profile with
            | Vms_like -> dz_pte
            | Unix_like ->
                (* no paging: pre-mapped zero pages would need frames; the
                   Unix-like profile pre-allocates them after the code *)
                Pte.make ~valid:true ~modify:true ~prot:Protection.UW
                  ~pfn:(base_pfn + max_code_pages
                        + (vpn - (Userland.data_base / 512)))
                  ()
          else na_pte
        in
        put_long p0 (tbl + (4 * vpn)) e
      done;
      let t1 = i * 0x200 in
      for j = 0 to p1_entries - 1 do
        let vpn = p1_first + j in
        let e =
          if vpn >= p1lr_value then
            match profile with
            | Vms_like -> dz_pte
            | Unix_like ->
                Pte.make ~valid:true ~modify:true ~prot:Protection.UW
                  ~pfn:(base_pfn + max_code_pages + max_data_pages
                        + (vpn - p1lr_value))
                  ()
          else na_pte
        in
        put_long p1 (t1 + (4 * j)) e
      done)
    (List.combine programs prog_pfns);
  (p0, p1)

(* ------------------------------------------------------------------ *)

let build ?(profile = Vms_like) ?(tick = 8000) ?(quantum = 4) ?(memsize = 240)
    ?(force_mmio = false) ~programs () =
  let nproc = List.length programs in
  if nproc = 0 || nproc > max_processes then
    invalid_arg "Minivms.build: 1-8 programs";
  if memsize > 255 then invalid_arg "Minivms.build: memsize > 255";
  List.iter
    (fun p ->
      let code_pages = (Bytes.length p.prog_image.Asm.code + 511) / 512 in
      if code_pages > max_code_pages then
        invalid_arg (p.prog_name ^ ": too much code");
      if p.prog_data_pages > max_data_pages then
        invalid_arg (p.prog_name ^ ": too much data"))
    programs;
  (* program placement: the Unix-like profile needs pre-allocated data
     and stack frames behind each image *)
  let pages_per_program p =
    match profile with
    | Vms_like -> (Bytes.length p.prog_image.Asm.code + 511) / 512
    | Unix_like -> max_code_pages + max_data_pages + user_stack_pages
  in
  let prog_pfns =
    let next = ref (prog_base / 512) in
    List.map
      (fun p ->
        let base = !next in
        next := !next + pages_per_program p;
        base)
      programs
  in
  let first_free =
    match (List.rev programs, List.rev prog_pfns) with
    | p :: _, base :: _ -> base + pages_per_program p
    | [], _ | _, [] -> prog_base / 512
  in
  if first_free > memsize then invalid_arg "Minivms.build: programs overflow memory";
  let p0lrs =
    List.map
      (fun p ->
        match profile with
        | Vms_like -> (Userland.data_base / 512) + p.prog_data_pages
        | Unix_like -> (Userland.data_base / 512) + p.prog_data_pages)
      programs
  in
  let stub = build_stub ~memsize in
  let kernel =
    build_kernel ~profile ~tick ~quantum ~memsize ~nproc ~first_free
      ~force_mmio
  in
  let pcbs = build_pcbs ~nproc ~p0lrs in
  let p0, p1 = build_page_tables ~profile ~programs ~prog_pfns in
  let prog_images =
    List.map2
      (fun p base -> (base * 512, p.prog_image.Asm.code))
      programs prog_pfns
  in
  {
    images =
      [
        (stub_phys, stub.Asm.code);
        (kcode_phys, kernel.Asm.code);
        (pcb_base, pcbs);
        (p0t_base, p0);
        (p1t_base, p1);
      ]
      @ prog_images;
    entry = stub_phys;
    memsize;
    kernel;
    code_images =
      (("boot", stub) :: ("kernel", kernel)
      :: List.map (fun p -> (p.prog_name, p.prog_image)) programs);
  }

(* Execution mode in which control first enters a code image: the boot
   stub is entered at the boot PC with memory management off, in kernel
   mode, and jumps to the kernel image still in kernel mode; user
   program images are only ever entered through LDPCTX/REI with the PCB
   PSL (current mode = user, PC = 0).  Seeds the vaxflow abstract-mode
   analysis. *)
let image_entry_mode = function
  | "boot" | "kernel" -> Some Mode.Kernel
  | _ -> Some Mode.User
