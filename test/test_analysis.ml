(* Tests for the vaxlint analysis subsystem: the resynchronizing
   disassembler sweep, CFG recovery diagnostics, the Popek-Goldberg
   classifier and trap predictor, and the differential oracle (unit-level
   and end-to-end on the hello workload). *)

open Vax_arch
open Vax_cpu
open Vax_analysis
open Vax_workloads
module Asm = Vax_asm.Asm
module Disasm = Vax_asm.Disasm

(* --- satellite: resynchronizing decode ------------------------------- *)

let garbage = 0xFF (* no opcode page behind 0xFF in the subset *)

let mixed_image () =
  let a = Asm.create ~origin:0x800 in
  Asm.ins a Opcode.Movl [ Asm.Imm 0x55; Asm.R 1 ];
  Asm.byte a garbage;
  Asm.ins a Opcode.Incl [ Asm.R 1 ];
  Asm.assemble a

let test_resync_continues () =
  let img = mixed_image () in
  let insns = Disasm.decode_all ~resync:true img.Asm.code ~base:0x800 in
  Alcotest.(check int) "three entries" 3 (List.length insns);
  let byte_insn = List.nth insns 1 in
  Alcotest.(check bool) "pseudo-insn has no opcode" true
    (byte_insn.Disasm.opcode = None);
  Alcotest.(check string) ".byte mnemonic" ".byte" byte_insn.Disasm.mnemonic;
  Alcotest.(check int) "one byte consumed" 1 byte_insn.Disasm.length;
  (match (List.nth insns 2).Disasm.opcode with
  | Some Opcode.Incl -> ()
  | _ -> Alcotest.fail "did not resynchronize on INCL");
  let total = List.fold_left (fun n i -> n + i.Disasm.length) 0 insns in
  Alcotest.(check int) "whole image covered" (Bytes.length img.Asm.code) total

let test_no_resync_stops () =
  let img = mixed_image () in
  let insns = Disasm.decode_all img.Asm.code ~base:0x800 in
  Alcotest.(check int) "stops at the garbage byte" 1 (List.length insns)

(* --- CFG recovery ---------------------------------------------------- *)

(* entry: MOVL; BRB over an embedded data blob; target: HALT.  The blob
   is reachable by no path, so it must show up as an unreachable-bytes
   diagnostic and stay out of the recursive-descent instruction set. *)
let branch_over_data () =
  let a = Asm.create ~origin:0x1000 in
  Asm.ins a Opcode.Movl [ Asm.Imm 0x11; Asm.R 0 ];
  Asm.ins a Opcode.Brb [ Asm.Branch "after" ];
  let data_at = Asm.here a in
  Asm.long a 0xFFFF_FFFF;
  Asm.label a "after";
  Asm.ins a Opcode.Halt [];
  (Asm.assemble a, data_at)

let test_cfg_unreachable_data () =
  let img, data_at = branch_over_data () in
  (* drop the "after" symbol so the data is not rescued by an entry *)
  let image =
    { (Cfg.of_asm "t" img) with Cfg.entries = [ img.Asm.image_origin ] }
  in
  let cfg = Cfg.analyze image in
  Alcotest.(check bool) "data address is not a reachable insn" false
    (Hashtbl.mem cfg.Cfg.reachable data_at);
  let unreachable =
    List.exists
      (function
        | Cfg.Unreachable { at; count } -> at = data_at && count = 4
        | Cfg.Overlap _ -> false)
      cfg.Cfg.diags
  in
  Alcotest.(check bool) "unreachable-bytes diagnostic" true unreachable;
  (* the BRB block's only successor is the HALT block *)
  let brb_block =
    List.find
      (fun b ->
        List.exists
          (fun i -> i.Disasm.opcode = Some Opcode.Brb)
          b.Cfg.b_insns)
      cfg.Cfg.blocks
  in
  Alcotest.(check (list int)) "brb successor" [ data_at + 4 ]
    brb_block.Cfg.b_succs

(* --- satellite: PC-relative displacement control transfers ----------- *)

(* assembler round-trip: a disp(PC) destination of JMP/JSB/CALLS must
   resolve, after decode, to the address the displacement was computed
   against — the end of that operand's specifier *)
let pc_disp_targets op operands =
  let a = Asm.create ~origin:0x2000 in
  Asm.ins a op operands;
  let img = Asm.assemble a in
  let i = List.hd (Disasm.decode_all img.Asm.code ~base:0x2000) in
  (i, Cfg.static_targets i)

let test_static_targets_pc_disp () =
  (* JMP: 17 AF 05 — operand ends at +3, so the target is 0x2008 *)
  let i, ts = pc_disp_targets Opcode.Jmp [ Asm.Disp (5, Asm.pc) ] in
  Alcotest.(check int) "jmp length" 3 i.Disasm.length;
  Alcotest.(check (list int)) "jmp disp(pc)" [ 0x2008 ] ts;
  (* negative displacement *)
  let _, ts = pc_disp_targets Opcode.Jsb [ Asm.Disp (-4, Asm.pc) ] in
  Alcotest.(check (list int)) "jsb disp(pc)" [ 0x2000 + 3 - 4 ] ts;
  (* CALLS: the destination is the second operand, after the argument
     count literal — FB 00 AF 06, operand ends at +4 *)
  let _, ts = pc_disp_targets Opcode.Calls [ Asm.Lit 0; Asm.Disp (6, Asm.pc) ] in
  Alcotest.(check (list int)) "calls disp(pc)" [ 0x2000 + 4 + 6 ] ts

let test_cfg_pc_disp_roundtrip () =
  (* JMP over an embedded blob via disp(PC): the target must be reached
     by recursive descent with no symbol entry helping out *)
  let a = Asm.create ~origin:0x3000 in
  Asm.ins a Opcode.Jmp [ Asm.Disp (4, Asm.pc) ];
  Asm.long a 0xDEADBEEF;
  Asm.ins a Opcode.Halt [];
  let img = Asm.assemble a in
  let image = { (Cfg.of_asm "t" img) with Cfg.entries = [ 0x3000 ] } in
  let cfg = Cfg.analyze image in
  Alcotest.(check bool) "halt reachable through jmp disp(pc)" true
    (Hashtbl.mem cfg.Cfg.reachable 0x3007);
  Alcotest.(check bool) "data not reachable" false
    (Hashtbl.mem cfg.Cfg.reachable 0x3003)

let test_cfg_overlap_diag () =
  (* MOVL #imm32, R0 whose immediate bytes themselves decode (CLRL R0);
     a second entry into the immediate creates overlapping decodes *)
  let code = Bytes.of_string "\xD0\x8F\xD4\x50\x00\x00\x50" in
  let image =
    { Cfg.name = "t"; base = 0x400; code; entries = [ 0x400; 0x402 ];
      entry_mode = None }
  in
  let cfg = Cfg.analyze image in
  Alcotest.(check bool) "overlap diagnostic" true
    (List.exists
       (function
         | Cfg.Overlap { at = 0x402; prev = 0x400 } -> true
         | _ -> false)
       cfg.Cfg.diags)

let test_cfg_sites_union () =
  let img, data_at = branch_over_data () in
  let cfg = Cfg.analyze (Cfg.of_asm "t" img) in
  let sites = Cfg.all_sites cfg in
  Alcotest.(check bool) "entry is a site" true
    (List.exists (fun i -> i.Disasm.address = 0x1000) sites);
  Alcotest.(check bool) "halt is a site" true
    (List.exists
       (fun i ->
         i.Disasm.opcode = Some Opcode.Halt && i.Disasm.address = data_at + 4)
       sites)

(* --- classifier and predictor ---------------------------------------- *)

let insn_of op operands =
  let a = Asm.create ~origin:0 in
  Asm.ins a op operands;
  let img = Asm.assemble a in
  List.hd (Disasm.decode_all img.Asm.code ~base:0)

let test_classify () =
  let cls op = Classify.classify op in
  Alcotest.(check string) "mtpr" "privileged" (Classify.cls_name (cls Opcode.Mtpr));
  Alcotest.(check string) "halt" "privileged" (Classify.cls_name (cls Opcode.Halt));
  Alcotest.(check string) "movpsl" "sensitive-unprivileged"
    (Classify.cls_name (cls Opcode.Movpsl));
  Alcotest.(check string) "rei" "sensitive-unprivileged"
    (Classify.cls_name (cls Opcode.Rei));
  Alcotest.(check string) "movl" "innocuous" (Classify.cls_name (cls Opcode.Movl));
  (* MOVPSL is the paper's showcase: sensitive yet NOT VM-trapping,
     because the microcode composes the virtual PSL directly (§4.4.1) *)
  Alcotest.(check bool) "movpsl does not vm-trap" false
    (Classify.vm_trapping Opcode.Movpsl);
  Alcotest.(check bool) "rei vm-traps" true (Classify.vm_trapping Opcode.Rei);
  Alcotest.(check bool) "probew vm-traps" true
    (Classify.vm_trapping Opcode.Probew);
  Alcotest.(check bool) "mtpr vm-traps" true (Classify.vm_trapping Opcode.Mtpr)

let has k l = List.mem k l

let test_predict () =
  let mtpr = insn_of Opcode.Mtpr [ Asm.Imm 0x1F; Asm.Imm 18 ] in
  let vm = Classify.predict ~mode:Classify.Vm mtpr in
  Alcotest.(check bool) "mtpr/vm: vm-emulation" true
    (has State.Trap_vm_emulation vm);
  Alcotest.(check bool) "mtpr/vm: privileged (VM-user case)" true
    (has State.Trap_privileged vm);
  let bare = Classify.predict ~mode:Classify.Bare mtpr in
  Alcotest.(check bool) "mtpr/bare: privileged" true
    (has State.Trap_privileged bare);
  Alcotest.(check bool) "mtpr/bare: no vm-emulation" false
    (has State.Trap_vm_emulation bare);
  (* register destination: no memory write, no modify fault *)
  let movl_r = insn_of Opcode.Movl [ Asm.Imm 5; Asm.R 2 ] in
  Alcotest.(check int) "movl->reg predicts nothing" 0
    (List.length (Classify.predict ~mode:Classify.Vm movl_r));
  (* memory destination: a modify fault is possible in either mode *)
  let movl_m = insn_of Opcode.Movl [ Asm.Imm 5; Asm.Deref 2 ] in
  Alcotest.(check bool) "movl->(r2) predicts modify" true
    (has State.Trap_modify (Classify.predict ~mode:Classify.Bare movl_m));
  (* implicit stack push counts as a memory write *)
  let pushl = insn_of Opcode.Pushl [ Asm.R 0 ] in
  Alcotest.(check bool) "pushl predicts modify" true
    (has State.Trap_modify (Classify.predict ~mode:Classify.Vm pushl));
  (* MOVPSL to a register: sensitive but silent — predicts nothing *)
  let movpsl = insn_of Opcode.Movpsl [ Asm.R 4 ] in
  Alcotest.(check int) "movpsl->reg predicts nothing in VM mode" 0
    (List.length (Classify.predict ~mode:Classify.Vm movpsl))

(* a truncated decode at the image edge: opcode present, operand list
   shorter than the operand table — must be treated conservatively as
   memory-writing, not crash in [exists2] *)
let test_writes_memory_truncated () =
  let i =
    {
      Disasm.address = 0x500;
      length = 1;
      opcode = Some Opcode.Movl;
      mnemonic = "MOVL";
      specs = [];
    }
  in
  Alcotest.(check bool) "truncated movl conservatively writes" true
    (Classify.writes_memory i);
  Alcotest.(check bool) "prediction includes modify" true
    (has State.Trap_modify (Classify.predict ~mode:Classify.Vm i))

(* --- oracle ----------------------------------------------------------- *)

let test_oracle_unit () =
  let o = Oracle.create ~name:"unit" in
  Oracle.predict o ~pc:0x100 [ State.Trap_privileged; State.Trap_modify ];
  Oracle.predict o ~pc:0x104 [ State.Trap_vm_emulation ];
  Oracle.observe o State.Trap_privileged 0x100;
  Oracle.observe o State.Trap_privileged 0x100;
  let c = Oracle.coverage o in
  Alcotest.(check int) "predicted pairs" 3 c.Oracle.predicted_pairs;
  Alcotest.(check int) "hit pairs" 1 c.Oracle.hit_pairs;
  Alcotest.(check int) "observed events" 2 c.Oracle.observed_events;
  Alcotest.check_raises "unpredicted kind raises"
    (Oracle.Unpredicted ("unit", State.Trap_modify, 0x104))
    (fun () -> Oracle.observe o State.Trap_modify 0x104);
  Alcotest.check_raises "unpredicted pc raises"
    (Oracle.Unpredicted ("unit", State.Trap_privileged, 0x200))
    (fun () -> Oracle.observe o State.Trap_privileged 0x200)

(* a [with_predictions] copy shares the (read-only) predicted table but
   tracks hits and events on its own — the benchmark harness's pattern *)
let test_oracle_sharing () =
  let src = Oracle.create ~name:"src" in
  Oracle.predict src ~pc:0x100 [ State.Trap_privileged ];
  Oracle.observe src State.Trap_privileged 0x100;
  let fresh = Oracle.with_predictions ~name:"fresh" src in
  let c = Oracle.coverage fresh in
  Alcotest.(check int) "shared predicted table" 1 c.Oracle.predicted_pairs;
  Alcotest.(check int) "fresh hits" 0 c.Oracle.hit_pairs;
  Alcotest.(check int) "fresh events" 0 c.Oracle.observed_events;
  Oracle.observe fresh State.Trap_privileged 0x100;
  let cs = Oracle.coverage src in
  Alcotest.(check int) "copy's hits do not leak back" 1 cs.Oracle.hit_pairs;
  Alcotest.(check int) "src events unchanged" 1 cs.Oracle.observed_events;
  Alcotest.check_raises "copy still raises on unpredicted"
    (Oracle.Unpredicted ("fresh", State.Trap_modify, 0x100))
    (fun () -> Oracle.observe fresh State.Trap_modify 0x100)

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

(* the registered exception printer: a raw Unpredicted escaping to the
   toplevel must name the trap, the site, and the oracle *)
let test_unpredicted_printer () =
  let s =
    Printexc.to_string (Oracle.Unpredicted ("w", State.Trap_modify, 0x42))
  in
  Alcotest.(check bool) "printer mentions prediction failure" true
    (contains s "not predicted");
  Alcotest.(check bool) "printer names the oracle" true (contains s "\"w\"");
  Alcotest.(check bool) "printer shows the pc" true (contains s "0x42")

(* end-to-end differential check on the smallest workload: bare runs on
   the Standard variant observe nothing; the VM run must hit predicted
   sites and raise on nothing *)
let test_oracle_hello () =
  let bare = Runner.run_bare (Catalog.build "hello") in
  let cb = Oracle.coverage bare.Runner.oracle in
  Alcotest.(check int) "bare: no tracked events" 0 cb.Oracle.observed_events;
  let vm = Runner.run_vm (Catalog.build "hello") in
  let cv = Oracle.coverage vm.Runner.oracle in
  Alcotest.(check bool) "vm: observed events" true (cv.Oracle.observed_events > 0);
  Alcotest.(check bool) "vm: predicted sites hit" true (cv.Oracle.hit_pairs > 0);
  Alcotest.(check bool) "vm: hits within predictions" true
    (cv.Oracle.hit_pairs <= cv.Oracle.predicted_pairs)

let () =
  Alcotest.run "analysis"
    [
      ( "resync",
        [
          Alcotest.test_case "continues past garbage" `Quick test_resync_continues;
          Alcotest.test_case "default stops" `Quick test_no_resync_stops;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "unreachable data" `Quick test_cfg_unreachable_data;
          Alcotest.test_case "site union" `Quick test_cfg_sites_union;
          Alcotest.test_case "pc-disp targets" `Quick test_static_targets_pc_disp;
          Alcotest.test_case "pc-disp round-trip" `Quick
            test_cfg_pc_disp_roundtrip;
          Alcotest.test_case "overlap diagnostic" `Quick test_cfg_overlap_diag;
        ] );
      ( "classify",
        [
          Alcotest.test_case "taxonomy" `Quick test_classify;
          Alcotest.test_case "trap prediction" `Quick test_predict;
          Alcotest.test_case "truncated decode writes" `Quick
            test_writes_memory_truncated;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "unit" `Quick test_oracle_unit;
          Alcotest.test_case "prediction sharing" `Quick test_oracle_sharing;
          Alcotest.test_case "unpredicted printer" `Quick
            test_unpredicted_printer;
          Alcotest.test_case "hello end-to-end" `Quick test_oracle_hello;
        ] );
    ]
