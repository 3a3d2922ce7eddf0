(* Superblock engine equivalence tests.

   The block engine ([Exec.Blocks]) is a pure host-speed optimisation: it
   must produce bit-identical architectural state, simulated cycle counts
   and interrupt latencies to the reference per-step interpreter
   ([Exec.Stepper]).  These tests run the same programs under both
   engines and compare everything observable: cycles (total and
   guest/monitor split), instruction counts, registers, PSL, console
   output, run outcome and TLB misses and evictions.  The catalog
   workloads run bare and under the VMM untraced, the engines'
   production path, and again traced ("differential"), with two VMs
   sharing one monitor added, comparing the full event trace too (less
   the block engine's own build events).  Fast-tier slots always defer
   their condition codes, so this is also the check that the deferral
   stays invisible.
   Directed programs run every operand shape the fast slot tier has no
   body for, and two post-commit arithmetic traps, from a block and
   against the stepper.

   They also pin down the invalidation rules: self-modifying code must
   take effect at the same instruction boundary under both engines, even
   when the store targets a later instruction of the *same* block, and a
   store into the second page of a page-straddling instruction must
   invalidate its cached decode. *)

open Vax_arch
open Vax_cpu
open Vax_workloads
module Asm = Vax_asm.Asm
module Trace = Vax_obs.Trace

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Workload equivalence: every catalog workload, bare and under the VMM *)

type summary = {
  outcome : string;
  total : int;
  guest : int;
  monitor : int;
  instrs : int;
  console : string;
  regs : int list;
  psl : int;
  tlb : int * int;
  trace : string;
}

(* The run's whole event stream, one line per event, except
   [Block_build], which only the block engine emits.  Installed as the
   [instrument] hook. *)
let record_trace buf (m : Vax_dev.Machine.t) =
  let tr = m.Vax_dev.Machine.trace in
  Trace.set_enabled tr true;
  Trace.set_sink tr
    (Some
       (fun ~seq:_ k ~a ~b ~c ->
         if k <> Trace.Block_build then
           Printf.bprintf buf "%s:%d:%d:%d\n" (Trace.kind_name k) a b c))

let summarize buf (m : Runner.measurement) =
  let mach = m.Runner.machine in
  let st = mach.Vax_dev.Machine.cpu in
  let tlb = Vax_mem.Mmu.tlb mach.Vax_dev.Machine.mmu in
  {
    outcome = Format.asprintf "%a" Vax_dev.Machine.pp_outcome m.Runner.outcome;
    total = m.Runner.total_cycles;
    guest = m.Runner.guest_cycles;
    monitor = m.Runner.monitor_cycles;
    instrs = m.Runner.instructions;
    console = m.Runner.console;
    regs = List.init 16 (State.reg st);
    psl = st.State.psl;
    tlb = (Vax_mem.Tlb.misses tlb, Vax_mem.Tlb.evictions tlb);
    trace = Buffer.contents buf;
  }

(* On a trace mismatch, report the first diverging event. *)
let check_trace name a b =
  if a <> b then begin
    let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
    let rec first i = function
      | x :: xs, y :: ys when x = y -> first (i + 1) (xs, ys)
      | x :: _, y :: _ -> Alcotest.failf "%s: event %d: %s <> %s" name i x y
      | _ -> Alcotest.failf "%s: one trace ends at event %d" name i
    in
    first 0 (la, lb)
  end

let check_summary name a b =
  Alcotest.(check string) (name ^ ": outcome") a.outcome b.outcome;
  check_int (name ^ ": total cycles") a.total b.total;
  check_int (name ^ ": guest cycles") a.guest b.guest;
  check_int (name ^ ": monitor cycles") a.monitor b.monitor;
  check_int (name ^ ": instructions") a.instrs b.instrs;
  Alcotest.(check string) (name ^ ": console") a.console b.console;
  Alcotest.(check (list int)) (name ^ ": registers") a.regs b.regs;
  check_int (name ^ ": psl") a.psl b.psl;
  (* TB hits are not compared: the stepper's decode cache is keyed on
     the TB generation, so after a TB change it re-decodes, and each
     re-fetched instruction byte counts a hit.  Blocks are physical and
     survive TB changes.  test_pinned.ml pins the block engine's hits. *)
  let am, ae = a.tlb and bm, be = b.tlb in
  check_int (name ^ ": tlb misses") am bm;
  check_int (name ^ ": tlb evictions") ae be;
  check_trace (name ^ ": trace") a.trace b.trace

(* Every catalog workload under both engines.  Untraced runs take the
   engines' production path; traced runs also compare the event stream. *)
let workloads ~traced kind run_one () =
  List.iter
    (fun w ->
      let built = Catalog.build w in
      let run engine =
        let buf = Buffer.create 4096 in
        let instrument = if traced then record_trace buf else ignore in
        summarize buf (run_one ~engine ~instrument built)
      in
      check_summary (kind ^ " " ^ w) (run Exec.Stepper) (run Exec.Blocks))
    Catalog.names

let bare_workloads ~traced =
  workloads ~traced "bare" (fun ~engine ~instrument b ->
      Runner.run_bare ~engine ~instrument b)

let vm_workloads ~traced =
  workloads ~traced "vm" (fun ~engine ~instrument b ->
      Runner.run_vm ~engine ~instrument b)

let test_two_vms () =
  let b1 = Catalog.build "editing" and b2 = Catalog.build "transaction" in
  let run engine =
    let buf = Buffer.create 4096 in
    let m1, m2 =
      Runner.run_two_vms ~engine ~instrument:(record_trace buf) b1 b2
    in
    (summarize buf m1, summarize buf m2)
  in
  let s1, s2 = run Exec.Stepper and b1, b2 = run Exec.Blocks in
  check_summary "two-vms vm1" s1 b1;
  check_summary "two-vms vm2" s2 b2

(* ------------------------------------------------------------------ *)
(* Directed programs on the bare CPU facade *)

let boot ~engine ?(origin = 0x1000) f =
  let cpu = Cpu.create ~engine () in
  let a = Asm.create ~origin in
  f a;
  let img = Asm.assemble a in
  Cpu.load cpu img.Asm.image_origin img.Asm.code;
  State.set_pc cpu.Cpu.state origin;
  State.set_sp cpu.Cpu.state 0x2000;
  (cpu, img)

let cpu_summary (cpu : Cpu.t) =
  ( List.init 16 (State.reg cpu.Cpu.state),
    cpu.Cpu.state.State.psl,
    Cycles.now cpu.Cpu.clock,
    cpu.Cpu.state.State.instructions )

let both_engines f =
  let s = f Exec.Stepper and b = f Exec.Blocks in
  let rs, ps, cs, is = s and rb, pb, cb, ib = b in
  Alcotest.(check (list int)) "registers" rs rb;
  check_int "psl" ps pb;
  check_int "cycles" cs cb;
  check_int "instructions" is ib;
  s

let opcode_byte op =
  match Opcode.encoding op with [ b ] -> b | _ -> assert false

(* An interrupt posted mid-block must be delivered at the same
   instruction boundary — same cycle, same instruction count — under
   both engines, for several different boundaries within the block. *)
let interrupt_program a =
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "handler"; Asm.R 0 ];
  Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.interval_timer) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0; Asm.Imm (Ipr.to_int Ipr.IPL) ];
  Asm.ins a Opcode.Movl [ Asm.Imm 40; Asm.R 2 ];
  Asm.label a "loop";
  (* a straight-line body long enough to span several block slots *)
  for _ = 1 to 6 do
    Asm.ins a Opcode.Incl [ Asm.R 1 ]
  done;
  Asm.ins a Opcode.Addl2 [ Asm.Imm 3; Asm.R 1 ];
  Asm.ins a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "loop" ];
  Asm.ins a Opcode.Halt [];
  Asm.align a 4;
  Asm.label a "handler";
  Asm.ins a Opcode.Incl [ Asm.R 10 ];
  Asm.ins a Opcode.Rei []

let run_with_interrupt engine k =
  let cpu, _ = boot ~engine interrupt_program in
  let st = cpu.Cpu.state in
  (* step exactly [k] instructions, post a timer interrupt, then run to
     the HALT; record the cycle and instruction count at delivery *)
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
  check_int "handler ran" 1 (State.reg st 10);
  (cpu_summary cpu, !delivery)

let test_interrupt_mid_block () =
  (* k values chosen to land at different offsets inside the loop body's
     block, including right after the block is first built *)
  List.iter
    (fun k ->
      let (ss, sd) = run_with_interrupt Exec.Stepper k in
      let (bs, bd) = run_with_interrupt Exec.Blocks k in
      let rs, ps, cs, is = ss and rb, pb, cb, ib = bs in
      Alcotest.(check (list int))
        (Printf.sprintf "k=%d registers" k)
        rs rb;
      check_int (Printf.sprintf "k=%d psl" k) ps pb;
      check_int (Printf.sprintf "k=%d final cycles" k) cs cb;
      check_int (Printf.sprintf "k=%d instructions" k) is ib;
      let dc_s, di_s = sd and dc_b, di_b = bd in
      check_int (Printf.sprintf "k=%d delivery cycle" k) dc_s dc_b;
      check_int (Printf.sprintf "k=%d delivery instruction" k) di_s di_b)
    [ 5; 9; 13; 17; 23; 42 ]


(* Single-step callers read the PSL between instructions: after every
   [Cpu.step], the block engine's PSL, with any deferred condition codes
   materialized, must equal the stepper's.  The loop's moves set N, then
   Z, then neither, and run from a block from the second pass on. *)
let test_step_psl_exact () =
  let prog a =
    Asm.ins a Opcode.Movl [ Asm.Imm 3; Asm.R 2 ];
    Asm.label a "loop";
    Asm.ins a Opcode.Movl [ Asm.Imm 0x8000_0000; Asm.R 3 ];
    Asm.ins a Opcode.Clrl [ Asm.R 1 ];
    Asm.ins a Opcode.Movl [ Asm.R 2; Asm.R 4 ];
    Asm.ins a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "loop" ];
    Asm.ins a Opcode.Halt []
  in
  let s, _ = boot ~engine:Exec.Stepper prog in
  let b, _ = boot ~engine:Exec.Blocks prog in
  let rec go n =
    let rs = Cpu.step s and rb = Cpu.step b in
    check_int (Printf.sprintf "psl after step %d" n) s.Cpu.state.State.psl
      b.Cpu.state.State.psl;
    match (rs, rb) with
    | Exec.Machine_halted, Exec.Machine_halted -> ()
    | Exec.Stepped, Exec.Stepped when n < 100 -> go (n + 1)
    | _ -> Alcotest.fail "engines disagree on the run's end"
  in
  go 1;
  Alcotest.(check bool) "ran from blocks" true (Block_cache.hits b.Cpu.bcache > 0)

(* Self-modifying code where the store targets a *later* instruction of
   the same straight-line block: the second iteration enters the block,
   the store bumps the page generation, and the patched slot must be
   re-decoded before it runs. *)
let test_smc_inside_block () =
  let incl = opcode_byte Opcode.Incl and decl = opcode_byte Opcode.Decl in
  let run engine =
    let cpu, _ =
      boot ~engine (fun a ->
          Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 2 ];
          Asm.ins a Opcode.Movb [ Asm.Imm incl; Asm.R 3 ];
          Asm.label a "loop";
          (* slot k: patch the opcode of slot k+1 *)
          Asm.ins a Opcode.Movb [ Asm.R 3; Asm.Abs_label "patch" ];
          Asm.label a "patch";
          Asm.ins a Opcode.Incl [ Asm.R 0 ];
          Asm.ins a Opcode.Movb [ Asm.Imm decl; Asm.R 3 ];
          Asm.ins a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "loop" ];
          Asm.ins a Opcode.Halt [])
    in
    (match Cpu.run cpu ~max_instructions:1000 () with
    | Exec.Machine_halted -> ()
    | _ -> Alcotest.fail "no halt");
    cpu_summary cpu
  in
  let (regs, _, _, _) = both_engines run in
  (* iteration 1 executes INCL, iteration 2 the patched DECL: a stale
     cached block would leave r0 = 2 instead *)
  check_int "patched slot re-decoded" 0 (List.nth regs 0)

(* The store lives in one block and patches an instruction of another,
   already-built block (a subroutine executed before and after). *)
let test_smc_across_blocks () =
  let decl = opcode_byte Opcode.Decl in
  let run engine =
    let cpu, _ =
      boot ~engine (fun a ->
          Asm.ins a Opcode.Bsbb [ Asm.Branch "sub" ];
          Asm.ins a Opcode.Bsbb [ Asm.Branch "sub" ];
          Asm.ins a Opcode.Movb [ Asm.Imm decl; Asm.Abs_label "subpatch" ];
          Asm.ins a Opcode.Bsbb [ Asm.Branch "sub" ];
          Asm.ins a Opcode.Halt [];
          Asm.label a "sub";
          Asm.label a "subpatch";
          Asm.ins a Opcode.Incl [ Asm.R 0 ];
          Asm.ins a Opcode.Rsb [])
    in
    (match Cpu.run cpu ~max_instructions:1000 () with
    | Exec.Machine_halted -> ()
    | _ -> Alcotest.fail "no halt");
    cpu_summary cpu
  in
  let (regs, _, _, _) = both_engines run in
  (* two INCLs then the patched DECL: 1 + 1 - 1 *)
  check_int "patched subroutine re-decoded" 1 (List.nth regs 0)

(* A page-straddling instruction whose second page is stored into must
   be re-decoded: the decode cache records both pages' generations. *)
let test_straddler_invalidation () =
  let page = Addr.page_size in
  let run engine =
    let origin = (2 * page) - 64 in
    let cpu, img =
      boot ~engine ~origin (fun a ->
          Asm.ins a Opcode.Bsbb [ Asm.Branch "strad" ];
          Asm.ins a Opcode.Movl [ Asm.R 0; Asm.R 5 ];
          (* patch the third immediate byte, which lives on the second
             page of the straddling instruction *)
          Asm.ins a Opcode.Movb [ Asm.Imm 0xAA; Asm.Abs (((2 * page) - 4) + 4) ];
          Asm.ins a Opcode.Bsbb [ Asm.Branch "strad" ];
          Asm.ins a Opcode.Halt [];
          Asm.space a ((2 * page) - 4 - Asm.here a);
          Asm.label a "strad";
          (* 7 bytes: opcode, 0x8F, 4 immediate bytes, register dst —
             starts 4 bytes before the page boundary, so the last two
             immediate bytes and the dst specifier are on the next page *)
          Asm.ins a Opcode.Movl [ Asm.Imm 0x11223344; Asm.R 0 ];
          Asm.ins a Opcode.Rsb [])
    in
    check_int "straddler placed at page boundary - 4"
      ((2 * page) - 4)
      (Asm.lookup img "strad");
    (match Cpu.run cpu ~max_instructions:1000 () with
    | Exec.Machine_halted -> ()
    | _ -> Alcotest.fail "no halt");
    cpu_summary cpu
  in
  let (regs, _, _, _) = both_engines run in
  check_int "first read" 0x11223344 (List.nth regs 5);
  (* a stale straddler decode would reproduce 0x11223344 *)
  check_int "second read sees patched byte" 0x11AA3344 (List.nth regs 0)

(* ------------------------------------------------------------------ *)
(* Directed shapes run from a block *)

(* Operand shapes the fast tier has no body for, so their block slots
   take the generic slot.  Each body runs in a three-pass loop: the first
   pass builds the blocks, the later ones dispatch the shape from them.
   R6 points at an eight-longword data area that is compared too, and
   after the shape MOVPSL folds its condition codes into R11 (the loop's
   SOBGTR would otherwise overwrite them unseen). *)
let data_base = 0x3000

let data_init =
  [ 0x12345685; 0x7FFFFFFE; 0x00000101; 0x80000000; 0x000000F0; 5; 0; 2 ]

let shape_program body a =
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  Asm.ins a Opcode.Moval
    [ Asm.Abs_label "arith"; Asm.Abs (0x8000 + Scb.arithmetic) ];
  Asm.ins a Opcode.Movl [ Asm.Imm 3; Asm.R 9 ];
  Asm.label a "loop";
  body a;
  Asm.ins a Opcode.Movpsl [ Asm.R 8 ];
  Asm.ins a Opcode.Addl2 [ Asm.R 8; Asm.R 11 ];
  Asm.ins a Opcode.Sobgtr [ Asm.R 9; Asm.Branch "loop" ];
  Asm.ins a Opcode.Halt [];
  Asm.align a 4;
  (* arithmetic trap handler: drop the trap code, count the trap *)
  Asm.label a "arith";
  Asm.ins a Opcode.Addl2 [ Asm.Imm 4; Asm.R 14 ];
  Asm.ins a Opcode.Incl [ Asm.R 10 ];
  Asm.ins a Opcode.Rei []

let run_shape body engine =
  let cpu, _ = boot ~engine (shape_program body) in
  let st = cpu.Cpu.state in
  List.iteri
    (fun i v -> Vax_mem.Phys_mem.write_long cpu.Cpu.phys (data_base + (4 * i)) v)
    data_init;
  List.iteri (fun i v -> State.set_reg st (i + 1) v)
    [ 0x12345685; 5; 0x80; 7; 0xFFFFFFFF; data_base ];
  (match Cpu.run cpu ~max_instructions:1000 () with
  | Exec.Machine_halted -> ()
  | _ -> Alcotest.fail "no halt");
  if engine = Exec.Blocks then
    Alcotest.(check bool) "ran from blocks" true (Block_cache.hits cpu.Cpu.bcache > 0);
  let regs, psl, cycles, instrs = cpu_summary cpu in
  let data =
    List.init (List.length data_init) (fun i ->
        Vax_mem.Phys_mem.read_long cpu.Cpu.phys (data_base + (4 * i)))
  in
  (regs @ data, psl, cycles, instrs)

let one op operands a = Asm.ins a op operands

(* a conditional branch over an INCL R7, so the passes take both ways *)
let branch_over op operands a =
  let skip = Asm.fresh_label ~prefix:"skip" a in
  Asm.ins a op (operands @ [ Asm.Branch skip ]);
  Asm.ins a Opcode.Incl [ Asm.R 7 ];
  Asm.label a skip

let directed_shapes =
  let r n = Asm.R n and m = Asm.Deref 6 and d k = Asm.Disp (k, 6) in
  [
    ("MOVL mem,mem", one Opcode.Movl [ m; d 4 ]);
    ("MOVB imm,reg", one Opcode.Movb [ Asm.Imm 0x85; r 3 ]);
    ("MOVB reg,reg", one Opcode.Movb [ r 1; r 3 ]);
    ("MOVB mem,reg", one Opcode.Movb [ m; r 3 ]);
    ("MOVB mem,mem", one Opcode.Movb [ m; d 8 ]);
    ("MOVZBL reg,reg", one Opcode.Movzbl [ r 1; r 4 ]);
    ("MOVZBL imm,reg", one Opcode.Movzbl [ Asm.Imm 0xF0; r 4 ]);
    ("MOVZBL reg,mem", one Opcode.Movzbl [ r 1; d 20 ]);
    ("CLRB reg", one Opcode.Clrb [ r 1 ]);
    ("CLRB mem", one Opcode.Clrb [ d 12 ]);
    ("TSTB reg", one Opcode.Tstb [ r 1 ]);
    ("TSTB mem", one Opcode.Tstb [ m ]);
    ("CMPB reg,imm", one Opcode.Cmpb [ r 1; Asm.Imm 5 ]);
    ("CMPB mem,imm", one Opcode.Cmpb [ m; Asm.Imm 0x85 ]);
    ("CMPB reg,mem", one Opcode.Cmpb [ r 1; d 4 ]);
    ("CMPB mem,mem", one Opcode.Cmpb [ m; d 8 ]);
    ("PUSHL mem", one Opcode.Pushl [ m ]);
    ("MOVAL mem,mem", one Opcode.Moval [ d 8; d 16 ]);
    ("DECL reg", one Opcode.Decl [ r 2 ]);
    ("MNEGL reg,reg", one Opcode.Mnegl [ r 1; r 4 ]);
    ("MNEGL mem,reg", one Opcode.Mnegl [ m; r 4 ]);
    ("MNEGL reg,mem", one Opcode.Mnegl [ r 1; d 24 ]);
    ("ADDL2 mem,mem", one Opcode.Addl2 [ m; d 4 ]);
    ("ADDL3 mem,reg,reg", one Opcode.Addl3 [ m; r 2; r 4 ]);
    ("SUBL3 reg,mem,reg", one Opcode.Subl3 [ r 2; m; r 4 ]);
    ( "BLBS reg",
      fun a ->
        Asm.ins a Opcode.Incl [ r 2 ];
        branch_over Opcode.Blbs [ r 2 ] a );
    ( "BLBC mem",
      fun a ->
        Asm.ins a Opcode.Incl [ m ];
        branch_over Opcode.Blbc [ m ] a );
    ("AOBLSS imm,reg", branch_over Opcode.Aoblss [ Asm.Imm 7; r 2 ]);
    ("SOBGTR mem", branch_over Opcode.Sobgtr [ d 28 ]);
  ]

(* Post-commit traps: the arithmetic trap is taken once evaluation has
   committed, with the next instruction's PC saved. *)
let trap_shapes =
  [
    ("DIVL3 by zero into mem", one Opcode.Divl3 [ Asm.R 0; Asm.R 2; Asm.Disp (4, 6) ]);
    ( "MNEGL #^x80000000 with IV",
      fun a ->
        Asm.ins a Opcode.Bispsw [ Asm.Imm 0x20 ];
        Asm.ins a Opcode.Mnegl [ Asm.Imm 0x80000000; Asm.R 4 ] );
  ]

let test_directed_shape body () = ignore (both_engines (run_shape body))

let test_traps_taken () =
  List.iter
    (fun (name, body) ->
      let regs, _, _, _ = run_shape body Exec.Blocks in
      check_int (name ^ ": one trap per pass") 3 (List.nth regs 10))
    trap_shapes

(* The block cache actually engages on these runs: hits and built blocks
   are non-zero under the block engine. *)
let test_block_cache_engages () =
  let built = Catalog.build "mix" in
  let m = Runner.run_bare ~engine:Exec.Blocks built in
  let bc = m.Runner.machine.Vax_dev.Machine.bcache in
  Alcotest.(check bool) "blocks built" true (Block_cache.built bc > 0);
  Alcotest.(check bool) "block hits" true (Block_cache.hits bc > 0);
  Alcotest.(check bool)
    "hits dominate misses" true
    (Block_cache.hits bc > Block_cache.misses bc)

let () =
  Alcotest.run "blocks"
    [
      ( "equivalence",
        [
          Alcotest.test_case "bare workloads: blocks = stepper" `Quick
            (bare_workloads ~traced:false);
          Alcotest.test_case "vm workloads: blocks = stepper" `Quick
            (vm_workloads ~traced:false);
          Alcotest.test_case "interrupt mid-block: same boundary" `Quick
            test_interrupt_mid_block;
          Alcotest.test_case "single step: exact PSL" `Quick
            test_step_psl_exact;
        ] );
      ( "differential",
        [
          Alcotest.test_case "bare workloads: blocks = stepper" `Quick
            (bare_workloads ~traced:true);
          Alcotest.test_case "vm workloads: blocks = stepper" `Quick
            (vm_workloads ~traced:true);
          Alcotest.test_case "two vms: blocks = stepper" `Quick test_two_vms;
        ] );
      ( "directed shapes",
        List.map
          (fun (name, body) ->
            Alcotest.test_case (name ^ ": blocks = stepper") `Quick
              (test_directed_shape body))
          (directed_shapes @ trap_shapes)
        @ [ Alcotest.test_case "traps taken every pass" `Quick test_traps_taken ] );
      ( "invalidation",
        [
          Alcotest.test_case "smc inside a block" `Quick test_smc_inside_block;
          Alcotest.test_case "smc across blocks" `Quick test_smc_across_blocks;
          Alcotest.test_case "page-straddler second-page store" `Quick
            test_straddler_invalidation;
        ] );
      ( "engagement",
        [
          Alcotest.test_case "block cache engages on workloads" `Quick
            test_block_cache_engages;
        ] );
    ]
