(* Liveness-guided superblock compilation tests.

   The liveness facts are a pure host-speed optimisation: compiling
   superblock slots with deferred condition codes and pre-folded
   constant operands must leave every simulated observable
   bit-identical to the unguided compiler.  The differential suite runs
   every catalog workload, bare and under the VMM, with facts installed
   and without, and compares cycles (total and guest/monitor split),
   instruction counts, registers, PSL, console output, run outcome, TLB
   statistics and the full event trace.  The engagement gauges count
   only slots the fast tier compiled, never a generic slot.

   The solver unit tests pin down the backward analysis itself on
   directed programs: a full kill proves all four codes dead, a
   conditional branch keeps exactly its condition alive — including
   across a block boundary and around a loop back-edge — an unresolved
   computed jump forces all-live, constants fold only when vaxflow
   settles, and dead register writes are counted.  The summary tests
   pin the interprocedural pass: a callee's (gen, kill, clobber)
   summary lets a caller-side write stay provably dead across a
   resolved JSB/BSBB site, a computed call falls back to all-live, and
   a callee that moves the stack pointer escapes to top.

   The runtime tests cover the two ways a deferred or folded fact can
   leak: a same-opcode byte patch (self-modifying code that rewrites an
   operand specifier without changing the opcode) must reject the stale
   fact through the page-generation stamp plus byte verification, and
   an interrupt delivered mid-block must see exactly the state the
   per-step interpreter shows it. *)

open Vax_arch
open Vax_cpu
open Vax_workloads
open Vax_analysis
module Asm = Vax_asm.Asm
module Disasm = Vax_asm.Disasm
module Trace = Vax_obs.Trace

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Differential suite: facts on vs. facts off, everything observable *)

type summary = {
  outcome : string;
  total : int;
  guest : int;
  monitor : int;
  instrs : int;
  console : string;
  regs : int list;
  psl : int;
  tlb : int * int * int;
  trace_total : int;
  trace_events : string list;
}

let enable_trace (m : Vax_dev.Machine.t) =
  Trace.set_enabled m.Vax_dev.Machine.trace true

let summarize (m : Runner.measurement) =
  let mach = m.Runner.machine in
  let st = mach.Vax_dev.Machine.cpu in
  let tlb = Vax_mem.Mmu.tlb mach.Vax_dev.Machine.mmu in
  let tr = mach.Vax_dev.Machine.trace in
  let evs = ref [] in
  Trace.iter_retained tr (fun ~seq k ~a ~b ~c ->
      evs :=
        Printf.sprintf "%d:%s:%d:%d:%d" seq (Trace.kind_name k) a b c :: !evs);
  {
    outcome = Format.asprintf "%a" Vax_dev.Machine.pp_outcome m.Runner.outcome;
    total = m.Runner.total_cycles;
    guest = m.Runner.guest_cycles;
    monitor = m.Runner.monitor_cycles;
    instrs = m.Runner.instructions;
    console = m.Runner.console;
    regs = List.init 16 (State.reg st);
    psl = st.State.psl;
    tlb = (Vax_mem.Tlb.hits tlb, Vax_mem.Tlb.misses tlb, Vax_mem.Tlb.evictions tlb);
    trace_total = Trace.total tr;
    trace_events = List.rev !evs;
  }

let check_summary name a b =
  Alcotest.(check string) (name ^ ": outcome") a.outcome b.outcome;
  check_int (name ^ ": total cycles") a.total b.total;
  check_int (name ^ ": guest cycles") a.guest b.guest;
  check_int (name ^ ": monitor cycles") a.monitor b.monitor;
  check_int (name ^ ": instructions") a.instrs b.instrs;
  Alcotest.(check string) (name ^ ": console") a.console b.console;
  Alcotest.(check (list int)) (name ^ ": registers") a.regs b.regs;
  check_int (name ^ ": psl") a.psl b.psl;
  let ah, am, ae = a.tlb and bh, bm, be = b.tlb in
  check_int (name ^ ": tlb hits") ah bh;
  check_int (name ^ ": tlb misses") am bm;
  check_int (name ^ ": tlb evictions") ae be;
  check_int (name ^ ": trace total") a.trace_total b.trace_total;
  Alcotest.(check (list string)) (name ^ ": trace events") a.trace_events
    b.trace_events

let test_bare_differential () =
  List.iter
    (fun w ->
      let built = Catalog.build w in
      let on =
        summarize
          (Runner.run_bare ~instrument:enable_trace ~liveness:true built)
      in
      let off =
        summarize
          (Runner.run_bare ~instrument:enable_trace ~liveness:false built)
      in
      check_summary ("bare " ^ w) off on)
    Catalog.names

let test_vm_differential () =
  List.iter
    (fun w ->
      let built = Catalog.build w in
      let on =
        summarize (Runner.run_vm ~instrument:enable_trace ~liveness:true built)
      in
      let off =
        summarize
          (Runner.run_vm ~instrument:enable_trace ~liveness:false built)
      in
      check_summary ("vm " ^ w) off on)
    Catalog.names

let test_two_vm_differential () =
  let b1 = Catalog.build "editing" and b2 = Catalog.build "transaction" in
  let run liveness =
    let m1, m2 =
      Runner.run_two_vms ~instrument:enable_trace ~liveness b1 b2
    in
    (summarize m1, summarize m2)
  in
  let on1, on2 = run true and off1, off2 = run false in
  check_summary "two-vms vm1" off1 on1;
  check_summary "two-vms vm2" off2 on2

(* The facts must actually engage on the workloads, otherwise the
   differential above proves nothing. *)
let test_facts_engage () =
  let built = Catalog.build "mix" in
  let m = Runner.run_bare ~liveness:true built in
  let bc = m.Runner.machine.Vax_dev.Machine.bcache in
  Alcotest.(check bool) "facts installed" true (bc.Block_cache.facts <> None);
  Alcotest.(check bool) "fact slots" true (bc.Block_cache.fact_slots > 0);
  Alcotest.(check bool) "cc elided" true (bc.Block_cache.cc_elided > 0);
  let off = Runner.run_bare ~liveness:false built in
  let bco = off.Runner.machine.Vax_dev.Machine.bcache in
  Alcotest.(check bool) "no facts when off" true (bco.Block_cache.facts = None);
  check_int "no fact slots when off" 0 bco.Block_cache.fact_slots

(* The call-heavy workload is the stress case for the interprocedural
   pass: its callee summaries must solve every resolved call site, and
   its caller-side dead writes must be detected across those sites. *)
let test_summaries_engage () =
  let built = Catalog.build "calls" in
  let m = Runner.run_bare ~liveness:true built in
  let bc = m.Runner.machine.Vax_dev.Machine.bcache in
  let facts =
    match bc.Block_cache.facts with
    | Some f -> f
    | None -> Alcotest.fail "facts not installed"
  in
  Alcotest.(check bool) "summary calls solved" true
    (facts.Block_facts.summary_calls > 0);
  check_int "no summary fallbacks on calls" 0
    facts.Block_facts.summary_fallbacks;
  Alcotest.(check bool) "dead register writes found" true
    (facts.Block_facts.dead_reg_writes >= 2)

(* ------------------------------------------------------------------ *)
(* Solver unit tests on directed programs *)

let image_of ~origin f =
  let a = Asm.create ~origin in
  f a;
  let img = Asm.assemble a in
  { (Cfg.of_asm "t" img) with Cfg.entries = [ origin ] }

(* The fact recorded at the first instruction with [op], via the same
   CFG recovery the pass itself uses. *)
let fact_at facts image op =
  let cfg = Cfg.analyze image in
  let insns =
    List.sort_uniq compare
      (List.concat_map
         (fun (b : Cfg.block) ->
           List.map (fun (i : Disasm.insn) -> (i.Disasm.address, i)) b.Cfg.b_insns)
         cfg.Cfg.blocks)
  in
  match List.find_opt (fun (_, i) -> i.Disasm.opcode = Some op) insns with
  | None -> Alcotest.fail "opcode not found in recovered CFG"
  | Some (va, i) ->
      Block_facts.find facts ~va ~op ~len:i.Disasm.length

let cc_dead facts image op =
  match fact_at facts image op with
  | None -> Alcotest.fail "no fact at site"
  | Some f -> f.Block_facts.f_cc_dead

let nvc = Block_facts.n_bit lor Block_facts.v_bit lor Block_facts.c_bit

(* A straight line that overwrites every code before any read: all four
   bits are dead after the arithmetic op (MOVL keeps C, but the TSTL
   then kills it unread). *)
let test_full_kill () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Addl2 [ Asm.R 1; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 5; Asm.R 2 ];
        Asm.ins a Opcode.Tstl [ Asm.R 2 ];
        Asm.ins a Opcode.Bneq [ Asm.Branch "end" ];
        Asm.label a "end";
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "all codes dead after ADDL2" Block_facts.all_cc
    (cc_dead facts image Opcode.Addl2)

(* A conditional branch keeps exactly its condition alive: both arms of
   the BNEQ kill the codes immediately, so after the CMPL only Z (read
   by the branch) survives. *)
let test_branch_keeps_condition () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Cmpl [ Asm.R 0; Asm.R 1 ];
        Asm.ins a Opcode.Bneq [ Asm.Branch "taken" ];
        Asm.ins a Opcode.Tstl [ Asm.R 3 ];
        Asm.ins a Opcode.Brb [ Asm.Branch "end" ];
        Asm.label a "taken";
        Asm.ins a Opcode.Tstl [ Asm.R 4 ];
        Asm.label a "end";
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "N, V, C dead after CMPL; Z live" nvc
    (cc_dead facts image Opcode.Cmpl)

(* The condition must survive a block boundary: the INCL's Z is read by
   a branch in the *next* block (after an unconditional BRB). *)
let test_cc_across_block_boundary () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Incl [ Asm.R 0 ];
        Asm.ins a Opcode.Brb [ Asm.Branch "l1" ];
        Asm.label a "l1";
        Asm.ins a Opcode.Bneq [ Asm.Branch "l2" ];
        Asm.ins a Opcode.Tstl [ Asm.R 1 ];
        Asm.label a "l2";
        Asm.ins a Opcode.Tstl [ Asm.R 2 ];
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "Z flows across the BRB boundary" nvc
    (cc_dead facts image Opcode.Incl)

(* A loop: Z stays live around the back edge (the BNEQ reads what the
   DECL of the *next* iteration wrote), N/V/C die on both the back edge
   (DECL is a full writer) and the exit (TSTL).  The loop counter stays
   live at the loop head. *)
let test_loop_back_edge () =
  let origin = 0x1000 in
  let image =
    image_of ~origin (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 3; Asm.R 1 ];
        Asm.label a "loop";
        Asm.ins a Opcode.Decl [ Asm.R 1 ];
        Asm.ins a Opcode.Bneq [ Asm.Branch "loop" ];
        Asm.ins a Opcode.Tstl [ Asm.R 2 ];
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "only Z live after DECL in the loop" nvc
    (cc_dead facts image Opcode.Decl);
  (* the entry block's solved live-out is the loop head's live-in: the
     counter register must be in it *)
  let cfg = Cfg.analyze image in
  let liveouts, _ = Liveness.solve_image cfg in
  match Hashtbl.find_opt liveouts origin with
  | None -> Alcotest.fail "entry block not solved"
  | Some m ->
      Alcotest.(check bool) "R1 live at loop head" true
        (Liveness.regs_of m land (1 lsl 1) <> 0)

(* An unresolved computed jump is an unknown successor: everything is
   live behind it, so the ADDL2 keeps all four codes. *)
let test_computed_jump_all_live () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Addl2 [ Asm.R 1; Asm.R 2 ];
        Asm.ins a Opcode.Jmp [ Asm.Deref 0 ])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "nothing dead before a computed jump" 0
    (cc_dead facts image Opcode.Addl2)

(* Constant folding: vaxflow proves R0 = 5 at the ADDL2's read, the
   workload settles, so the fact carries the folded operand. *)
let test_const_fact () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 5; Asm.R 0 ];
        Asm.ins a Opcode.Addl2 [ Asm.R 0; Asm.R 1 ];
        Asm.ins a Opcode.Halt [])
  in
  let facts, stats = Liveness.facts_of_images [ image ] in
  Alcotest.(check bool) "analysis settled" true stats.Liveness.mode_sound;
  match fact_at facts image Opcode.Addl2 with
  | None -> Alcotest.fail "no fact at ADDL2"
  | Some f ->
      Alcotest.(check (list (pair int int)))
        "operand 0 folded to 5"
        [ (0, 5) ]
        f.Block_facts.f_consts

(* Dead register writes are counted (and never elided). *)
let test_dead_reg_write_counted () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 1; Asm.R 5 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 5 ];
        Asm.ins a Opcode.Tstl [ Asm.R 5 ];
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "first write to R5 detected dead" 1
    facts.Block_facts.dead_reg_writes

(* ------------------------------------------------------------------ *)
(* Interprocedural summary tests *)

(* A write that is dead only because the callee's summary proves the
   callee never reads the register: without the interprocedural pass
   the BSBB would force all-live and the first MOVL would stay live.
   This is the fact-survives-a-call-site property the whole pass
   exists for. *)
let test_dead_across_call () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 1; Asm.R 5 ];
        Asm.ins a Opcode.Bsbb [ Asm.Branch "leaf" ];
        Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 5 ];
        Asm.ins a Opcode.Tstl [ Asm.R 5 ];
        Asm.ins a Opcode.Halt [];
        Asm.label a "leaf";
        Asm.ins a Opcode.Movl [ Asm.Imm 9; Asm.R 0 ];
        Asm.ins a Opcode.Rsb [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  Alcotest.(check bool) "call site solved through the summary" true
    (facts.Block_facts.summary_calls >= 1);
  check_int "no fallback on a resolved call" 0
    facts.Block_facts.summary_fallbacks;
  check_int "R5 write dead across the BSBB" 1
    facts.Block_facts.dead_reg_writes

(* The same caller with a computed callee: no summary applies, the
   call is all-read/all-clobbered, and the write before it stays
   live. *)
let test_computed_call_fallback () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 1; Asm.R 5 ];
        Asm.ins a Opcode.Jsb [ Asm.Deref 0 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 5 ];
        Asm.ins a Opcode.Tstl [ Asm.R 5 ];
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "no summary solves a computed call" 0
    facts.Block_facts.summary_calls;
  check_int "R5 stays live into the unknown callee" 0
    facts.Block_facts.dead_reg_writes

(* The summary lattice on a directed leaf: reads R1 (and SP through
   the RSB), kills and clobbers R0, leaves R5 untouched. *)
let test_leaf_summary () =
  let origin = 0x1000 in
  let image =
    image_of ~origin (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 9; Asm.R 0 ];
        Asm.ins a Opcode.Xorl2 [ Asm.R 1; Asm.R 0 ];
        Asm.ins a Opcode.Rsb [])
  in
  let t = Summaries.of_cfg (Cfg.analyze image) in
  match Summaries.find t origin with
  | None -> Alcotest.fail "no summary at the leaf entry"
  | Some s ->
      Alcotest.(check bool) "usable" true (Summaries.usable s);
      Alcotest.(check bool) "reads R1" true
        (s.Summaries.sg land Summaries.reg_bit 1 <> 0);
      check_int "does not read R0" 0 (s.Summaries.sg land Summaries.reg_bit 0);
      Alcotest.(check bool) "kills R0" true
        (s.Summaries.sk land Summaries.reg_bit 0 <> 0);
      Alcotest.(check bool) "clobbers R0" true (s.Summaries.sc land 1 <> 0);
      check_int "does not clobber R5" 0 (s.Summaries.sc land (1 lsl 5))

(* A callee that moves the stack pointer breaks the well-behaved-stack
   assumption the lattice rests on: its summary must escape to top and
   never be applied at a call site. *)
let test_sp_write_escapes () =
  let origin = 0x1000 in
  let image =
    image_of ~origin (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 0x800; Asm.R 14 ];
        Asm.ins a Opcode.Rsb [])
  in
  let t = Summaries.of_cfg (Cfg.analyze image) in
  match Summaries.find t origin with
  | None -> Alcotest.fail "no summary at the leaf entry"
  | Some s ->
      Alcotest.(check bool) "summary escapes to top" true (Summaries.is_top s);
      Alcotest.(check bool) "never usable at a call site" false
        (Summaries.usable s)

(* ------------------------------------------------------------------ *)
(* Runtime: stale facts and deferred writes under fire *)

let boot ~engine ?facts ?(origin = 0x1000) f =
  let cpu = Cpu.create ~engine () in
  let a = Asm.create ~origin in
  f a;
  let img = Asm.assemble a in
  Cpu.load cpu img.Vax_asm.Asm.image_origin img.Vax_asm.Asm.code;
  (match facts with
  | Some fc -> cpu.Cpu.bcache.Block_cache.facts <- Some fc
  | None -> ());
  State.set_pc cpu.Cpu.state origin;
  State.set_sp cpu.Cpu.state 0x2000;
  (cpu, img)

let cpu_summary (cpu : Cpu.t) =
  ( List.init 16 (State.reg cpu.Cpu.state),
    cpu.Cpu.state.State.psl,
    Cycles.now cpu.Cpu.clock,
    cpu.Cpu.state.State.instructions )

(* Self-modifying code that rewrites an operand specifier of an
   already-analyzed instruction without changing its opcode or length:
   the ADDL2's first operand was proven constant 5 (vaxflow folds R0),
   and the patch retargets it to R3 = 9.  The op/len guard alone
   cannot catch this — only the page-generation stamp plus byte
   verification can.  A stale fold would add 5 instead of 9 on the
   second iteration. *)
let smc_program addl2_addr a =
  Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 2 ];
  Asm.ins a Opcode.Movl [ Asm.Imm 5; Asm.R 0 ];
  Asm.ins a Opcode.Movl [ Asm.Imm 9; Asm.R 3 ];
  Asm.label a "loop";
  Asm.ins a Opcode.Clrl [ Asm.R 1 ];
  addl2_addr := Asm.here a;
  Asm.ins a Opcode.Addl2 [ Asm.R 0; Asm.R 1 ];
  (* 0x53 is the register-mode specifier for R3: same opcode, same
     length, different operand *)
  Asm.ins a Opcode.Movb [ Asm.Imm 0x53; Asm.Abs (!addl2_addr + 1) ];
  Asm.ins a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "loop" ];
  Asm.ins a Opcode.Halt []

let test_smc_same_opcode_patch () =
  let addl2_addr = ref 0 in
  let prog = smc_program addl2_addr in
  let image = image_of ~origin:0x1000 prog in
  let facts, _ = Liveness.facts_of_images [ image ] in
  (* the stale fact really is dangerous: it folds the patched operand *)
  (match fact_at facts image Opcode.Addl2 with
  | None -> Alcotest.fail "no fact at the ADDL2"
  | Some f ->
      Alcotest.(check (list (pair int int)))
        "operand 0 folded to 5 pre-patch"
        [ (0, 5) ]
        f.Block_facts.f_consts);
  let run engine facts' =
    let cpu, _ = boot ~engine ?facts:facts' prog in
    (match Cpu.run cpu ~max_instructions:1000 () with
    | Exec.Machine_halted -> ()
    | _ -> Alcotest.fail "no halt");
    cpu_summary cpu
  in
  let rs, ps, cs, is = run Exec.Stepper None in
  let rb, pb, cb, ib = run Exec.Blocks (Some facts) in
  Alcotest.(check (list int)) "registers" rs rb;
  check_int "psl" ps pb;
  check_int "cycles" cs cb;
  check_int "instructions" is ib;
  (* iteration 1 adds the folded 5; iteration 2 must add R3 = 9 *)
  check_int "patched operand re-read, stale fact rejected" 9 (List.nth rb 1)

(* An interrupt delivered mid-block must observe exactly what the
   per-step interpreter shows it: the MNEGL's R0 write and the MOVL's
   condition codes are dead on every synchronous path, but the handler
   reads R0 asynchronously and delivery pushes the PSL.  Compared
   against the stepper for several posting offsets inside the loop
   body. *)
let interrupt_program a =
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "handler"; Asm.R 6 ];
  Asm.ins a Opcode.Movl [ Asm.R 6; Asm.Abs (0x8000 + Scb.interval_timer) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0; Asm.Imm (Ipr.to_int Ipr.IPL) ];
  Asm.ins a Opcode.Movl [ Asm.Imm 40; Asm.R 2 ];
  Asm.label a "loop";
  Asm.ins a Opcode.Mnegl [ Asm.R 2; Asm.R 0 ];
  for _ = 1 to 4 do
    Asm.ins a Opcode.Incl [ Asm.R 1 ]
  done;
  Asm.ins a Opcode.Movl [ Asm.Imm 7; Asm.R 0 ];
  Asm.ins a Opcode.Addl2 [ Asm.R 0; Asm.R 1 ];
  Asm.ins a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "loop" ];
  Asm.ins a Opcode.Halt [];
  Asm.align a 4;
  Asm.label a "handler";
  Asm.ins a Opcode.Addl2 [ Asm.R 0; Asm.R 10 ];
  Asm.ins a Opcode.Rei []

let run_with_interrupt engine facts k =
  let cpu, _ = boot ~engine ?facts interrupt_program in
  let st = cpu.Cpu.state in
  for _ = 1 to k do
    ignore (Cpu.step cpu)
  done;
  State.post_interrupt st ~ipl:22 ~vector:Scb.interval_timer;
  let delivery = ref (-1, -1) in
  let rec go n =
    if n = 0 then Alcotest.fail "no halt";
    if st.State.interrupts_taken > 0 && !delivery = (-1, -1) then
      delivery := (Cycles.now cpu.Cpu.clock, st.State.instructions);
    match Cpu.step cpu with Exec.Machine_halted -> () | _ -> go (n - 1)
  in
  go 5000;
  check_int "interrupt delivered once" 1 st.State.interrupts_taken;
  (cpu_summary cpu, !delivery)

let test_interrupt_mid_block () =
  let image = image_of ~origin:0x1000 interrupt_program in
  let facts, _ = Liveness.facts_of_images [ image ] in
  List.iter
    (fun k ->
      let ss, sd = run_with_interrupt Exec.Stepper None k in
      let bs, bd = run_with_interrupt Exec.Blocks (Some facts) k in
      let rs, ps, cs, is = ss and rb, pb, cb, ib = bs in
      Alcotest.(check (list int)) (Printf.sprintf "k=%d registers" k) rs rb;
      check_int (Printf.sprintf "k=%d psl" k) ps pb;
      check_int (Printf.sprintf "k=%d final cycles" k) cs cb;
      check_int (Printf.sprintf "k=%d instructions" k) is ib;
      let dc_s, di_s = sd and dc_b, di_b = bd in
      check_int (Printf.sprintf "k=%d delivery cycle" k) dc_s dc_b;
      check_int (Printf.sprintf "k=%d delivery instruction" k) di_s di_b)
    [ 5; 6; 7; 8; 9; 11; 14; 17; 23; 42 ]

(* The engagement gauges credit only slots the fast tier compiled: a
   generic slot never reads its fact.  [MOVL (R1)+, R2] has no fast-tier
   body, so its dead NZV must add nothing to [cc_elided] or
   [fact_slots]; the same MOVL from [(R1)], a fast shape, adds one to
   each. *)
let gauge_program src a =
  Asm.label a "loop";
  Asm.ins a Opcode.Movl [ src; Asm.R 2 ];
  Asm.ins a Opcode.Cmpl [ Asm.R 2; Asm.Imm 0 ];
  Asm.ins a Opcode.Sobgtr [ Asm.R 5; Asm.Branch "loop" ];
  Asm.ins a Opcode.Halt []

let gauges_after src =
  let prog = gauge_program src in
  let image = image_of ~origin:0x1000 prog in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "NZV dead after the MOVL" Block_facts.nzv
    (cc_dead facts image Opcode.Movl land Block_facts.nzv);
  let cpu, _ = boot ~engine:Exec.Blocks ~facts prog in
  State.set_reg cpu.Cpu.state 1 0x3000;
  State.set_reg cpu.Cpu.state 5 2;
  (match Cpu.run cpu ~max_instructions:100 () with
  | Exec.Machine_halted -> ()
  | _ -> Alcotest.fail "no halt");
  let bc = cpu.Cpu.bcache in
  (bc.Block_cache.cc_elided, bc.Block_cache.fact_slots)

let test_gauges_count_fast_tier_only () =
  let elided_gen, slots_gen = gauges_after (Asm.Postinc 1) in
  let elided_fast, slots_fast = gauges_after (Asm.Deref 1) in
  check_int "generic MOVL (R1)+ elides nothing" 0 elided_gen;
  check_int "fast MOVL (R1) elides its NZV" 1 elided_fast;
  check_int "only the fast MOVL is a fact slot" 1 (slots_fast - slots_gen)

let () =
  Alcotest.run "liveness"
    [
      ( "differential",
        [
          Alcotest.test_case "bare workloads: facts = no facts" `Quick
            test_bare_differential;
          Alcotest.test_case "vm workloads: facts = no facts" `Quick
            test_vm_differential;
          Alcotest.test_case "two vms: facts = no facts" `Quick
            test_two_vm_differential;
          Alcotest.test_case "facts engage" `Quick test_facts_engage;
          Alcotest.test_case "summaries engage on calls" `Quick
            test_summaries_engage;
          Alcotest.test_case "gauges count fast-tier slots only" `Quick
            test_gauges_count_fast_tier_only;
        ] );
      ( "solver",
        [
          Alcotest.test_case "full kill: all codes dead" `Quick test_full_kill;
          Alcotest.test_case "branch keeps its condition" `Quick
            test_branch_keeps_condition;
          Alcotest.test_case "cc across a block boundary" `Quick
            test_cc_across_block_boundary;
          Alcotest.test_case "loop back edge" `Quick test_loop_back_edge;
          Alcotest.test_case "computed jump keeps all live" `Quick
            test_computed_jump_all_live;
          Alcotest.test_case "constant operand fact" `Quick test_const_fact;
          Alcotest.test_case "dead register write counted" `Quick
            test_dead_reg_write_counted;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "write dead across a resolved call" `Quick
            test_dead_across_call;
          Alcotest.test_case "computed call falls back" `Quick
            test_computed_call_fallback;
          Alcotest.test_case "leaf summary lattice" `Quick test_leaf_summary;
          Alcotest.test_case "SP write escapes to top" `Quick
            test_sp_write_escapes;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "same-opcode byte patch rejects stale fact"
            `Quick test_smc_same_opcode_patch;
          Alcotest.test_case "interrupt mid-block: blocks+facts = stepper"
            `Quick test_interrupt_mid_block;
        ] );
    ]
