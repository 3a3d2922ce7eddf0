(* Property-based tests of instruction semantics: each arithmetic/logic
   instruction is checked against an independent OCaml reference over
   random operands (values and condition codes), on the stepper and
   from a compiled block slot, and the assembler and disassembler are
   checked as inverses over random instruction streams. *)

open Vax_arch
open Vax_cpu
module Asm = Vax_asm.Asm
module Disasm = Vax_asm.Disasm

let w32 = QCheck.map (fun i -> i land 0xFFFF_FFFF) QCheck.int
let qt ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let signed = Word.to_signed

(* ------------------------------------------------------------------ *)
(* One instruction on either engine *)

let mask = 0xFFFF_FFFF
let s32 x = if x land 0x8000_0000 <> 0 then x - 0x1_0000_0000 else x
let sext8 x = if x land 0x80 <> 0 then (x land 0xFF) - 0x100 else x land 0xFF
let fits32 x = x >= -0x8000_0000 && x <= 0x7FFF_FFFF

(* Run [op operands] with R1-R3 = [r] and the condition codes = [cc]
   (NZVC, C in bit 0) set before it, twice in a loop, so under the
   block engine the second pass runs the compiled slot.  Returns R1-R3
   and the N, Z, V, C the instruction left. *)
let run_data ~engine ?(cc = 0) (op, operands) (r1, r2, r3) =
  let cpu = Cpu.create ~engine () in
  let st = cpu.Cpu.state in
  let a = Asm.create ~origin:0x1000 in
  Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 9 ];
  Asm.label a "loop";
  List.iteri (fun i v -> Asm.ins a Opcode.Movl [ Asm.Imm v; Asm.R (i + 1) ])
    [ r1; r2; r3 ];
  Asm.ins a Opcode.Bicpsw [ Asm.Imm 0xF ];
  Asm.ins a Opcode.Bispsw [ Asm.Imm cc ];
  Asm.ins a op operands;
  Asm.ins a Opcode.Movpsl [ Asm.R 8 ];
  Asm.ins a Opcode.Sobgtr [ Asm.R 9; Asm.Branch "loop" ];
  Asm.ins a Opcode.Halt [];
  let img = Asm.assemble a in
  Cpu.load cpu 0x1000 img.Asm.code;
  State.set_pc st 0x1000;
  State.set_sp st 0x2000;
  ignore (Cpu.run cpu ~max_instructions:100 ());
  let p = State.reg st 8 in
  ( State.reg st 1,
    State.reg st 2,
    State.reg st 3,
    (Psl.n p, Psl.z p, Psl.v p, Psl.c p) )

let on_both f = f Exec.Stepper && f Exec.Blocks

(* [op R1, R2] with R1 = [a] and R2 = [b]: (R2, N, Z, V, C) *)
let binop ~engine op a b =
  let _, r2, _, (n, z, v, c) = run_data ~engine (op, [ Asm.R 1; Asm.R 2 ]) (a, b, 0) in
  (r2, n, z, v, c)

(* ASHL #cnt, R1, R2 with R1 = [v]: (R2, N, Z, V, C).  The count
   immediate is encoded as a byte, so the machine sees the
   sign-extended low 8 bits of [cnt]. *)
let ashl ~engine cnt v =
  let _, r2, _, (n, z, ov, c) =
    run_data ~engine (Opcode.Ashl, [ Asm.Imm cnt; Asm.R 1; Asm.R 2 ]) (v, 0, 0)
  in
  (r2, n, z, ov, c)

let cc_arb = QCheck.int_bound 15
let c_of cc = cc land 1 = 1
let r n = Asm.R n

(* operands that straddle the interesting boundaries, and any others *)
let edge32 =
  QCheck.oneof
    [ QCheck.oneofl [ 0; 1; 0x7FFF_FFFE; 0x7FFF_FFFF; 0x8000_0000; 0x8000_0001;
                      0xFFFF_FFFF ];
      w32 ]

(* Independent bit-serial ASHL reference: shift one position at a time;
   overflow iff a left shift ever brings a bit into the sign position
   that differs from the initial sign.  Returns (result, v). *)
let ashl_ref cnt v =
  let cnt = Word.to_signed (Word.sext ~width:8 (cnt land 0xFF)) in
  let sign x = (x lsr 31) land 1 in
  if cnt >= 0 then begin
    let r = ref v and ov = ref false in
    let s0 = sign v in
    for _ = 1 to cnt do
      r := (!r lsl 1) land 0xFFFF_FFFF;
      if sign !r <> s0 then ov := true
    done;
    (!r, !ov)
  end
  else begin
    let r = ref v in
    for _ = 1 to -cnt do
      r := (!r lsr 1) lor (sign !r lsl 31)
    done;
    (!r, false)
  end

(* Every count the byte encoding can express, against values covering
   the interesting sign patterns (sign boundaries, alternating bits,
   single bits near the top), on both engines.  Checks the result and
   all four codes against the bit-serial reference, and that Absdom's
   transfer (Word.ashl) agrees with what the machine computed. *)
let ashl_exhaustive () =
  let values =
    [
      0x0000_0000; 0x0000_0001; 0x0000_0002; 0x7FFF_FFFF; 0x8000_0000;
      0x8000_0001; 0xFFFF_FFFF; 0xFFFF_FFFE; 0xAAAA_AAAA; 0x5555_5555;
      0x4000_0000; 0xC000_0000; 0x1234_5678; 0xFEDC_BA98; 0x0000_8000;
      0xFFFF_8000;
    ]
  in
  for cnt = -128 to 127 do
    List.iter
      (fun (engine, v) ->
        let r, n, z, ov, c = ashl ~engine cnt v in
        let er, ev = ashl_ref cnt v in
        let ctx =
          Printf.sprintf "ASHL #%d, #0x%08x (%s)" cnt v
            (if engine = Exec.Stepper then "stepper" else "blocks")
        in
        Alcotest.(check int) (ctx ^ " result") er r;
        Alcotest.(check bool) (ctx ^ " N") (signed er < 0) n;
        Alcotest.(check bool) (ctx ^ " Z") (er = 0) z;
        Alcotest.(check bool) (ctx ^ " V") ev ov;
        Alcotest.(check bool) (ctx ^ " C") false c;
        Alcotest.(check int)
          (ctx ^ " Word.ashl agrees")
          r
          (Word.ashl ~cnt:(cnt land 0xFF) v))
      (List.concat_map (fun v -> [ (Exec.Stepper, v); (Exec.Blocks, v) ]) values)
  done

(* ------------------------------------------------------------------ *)
(* Data instructions against plain OCaml references *)

let exec_props =
  [
    qt "ADDL2 = 32-bit addition with correct N Z V C" (QCheck.pair w32 w32)
      (fun (a, b) ->
        on_both (fun engine ->
            let r, n, z, v, c = binop ~engine Opcode.Addl2 a b in
            let expect = (a + b) land 0xFFFF_FFFF in
            let sv =
              signed a >= 0 = (signed b >= 0) && signed expect >= 0 <> (signed a >= 0)
            in
            r = expect && n = (signed expect < 0) && z = (expect = 0) && v = sv
            && c = (a + b > 0xFFFF_FFFF)));
    qt "SUBL2 = dst - src with borrow" (QCheck.pair w32 w32) (fun (a, b) ->
        on_both (fun engine ->
            (* binop computes b - a (src = R1, dst = R2) *)
            let r, n, z, _, c = binop ~engine Opcode.Subl2 a b in
            let expect = (b - a) land 0xFFFF_FFFF in
            r = expect && n = (signed expect < 0) && z = (expect = 0) && c = (b < a)));
    qt "MULL2 = signed 32-bit product, V on overflow" (QCheck.pair w32 w32)
      (fun (a, b) ->
        on_both (fun engine ->
            let r, _, _, v, _ = binop ~engine Opcode.Mull2 a b in
            let wide = signed a * signed b in
            r = (wide land 0xFFFF_FFFF)
            && v = (wide < -0x8000_0000 || wide > 0x7FFF_FFFF)));
    qt "BISL2 = bitwise or" (QCheck.pair w32 w32) (fun (a, b) ->
        on_both (fun engine ->
            let r, _, z, v, _ = binop ~engine Opcode.Bisl2 a b in
            r = a lor b && z = (a lor b = 0) && not v));
    qt "BICL2 = dst and-not src" (QCheck.pair w32 w32) (fun (a, b) ->
        on_both (fun engine ->
            let r, _, _, _, _ = binop ~engine Opcode.Bicl2 a b in
            r = b land lnot a land 0xFFFF_FFFF));
    qt "XORL2 = bitwise xor" (QCheck.pair w32 w32) (fun (a, b) ->
        on_both (fun engine ->
            let r, _, _, _, _ = binop ~engine Opcode.Xorl2 a b in
            r = a lxor b));
    qt "CMPL orders like signed and unsigned comparison"
      (QCheck.pair w32 w32)
      (fun (a, b) ->
        on_both (fun engine ->
            let _, n, z, _, c = binop ~engine Opcode.Cmpl a b in
            n = (signed a < signed b) && z = (a = b) && c = (a < b)));
    qt "DIVL2 matches OCaml division (nonzero divisor)"
      (QCheck.pair w32 w32)
      (fun (a, b) ->
        QCheck.assume (a land 0xFFFF_FFFF <> 0);
        on_both (fun engine ->
            (* dst <- dst / src : b / a *)
            let r, _, _, _, _ = binop ~engine Opcode.Divl2 a b in
            r = (signed b / signed a) land 0xFFFF_FFFF));
    qt "ASHL matches the bit-serial reference"
      (QCheck.pair (QCheck.int_range (-128) 127) w32)
      (fun (cnt, v) ->
        on_both (fun engine ->
            let r, n, z, ov, c = ashl ~engine cnt v in
            let er, ev = ashl_ref cnt v in
            r = er && n = (signed er < 0) && z = (er = 0) && ov = ev && not c));
    qt "MOVZBL zero-extends" w32 (fun v ->
        on_both (fun engine ->
            let r, _, _, _, _ = binop ~engine Opcode.Movzbl v 0xFFFF_FFFF in
            r = v land 0xFF));
    qt "MNEGL negates" w32 (fun v ->
        on_both (fun engine ->
            (* mnegl src,dst: dst <- -src; binop uses (R1=src, R2=dst) *)
            let r, _, z, _, _ = binop ~engine Opcode.Mnegl v 0 in
            r = Word.neg v && z = (Word.neg v = 0)));
  ]

let data_props =
  [
    qt ~count:150 "SUBL3, DIVL3, BICL3 compute dst <- b op a" (QCheck.pair w32 w32)
      (fun (a, b) ->
        on_both (fun engine ->
            let run op = run_data ~engine (op, [ r 1; r 2; r 3 ]) (a, b, 0) in
            let _, _, d, (n, z, v, c) = run Opcode.Subl3 in
            let diff = s32 b - s32 a in
            let _, _, bic, _ = run Opcode.Bicl3 in
            d = diff land mask
            && n = (s32 d < 0) && z = (d = 0) && v = not (fits32 diff)
            && c = (b < a)
            && bic = b land lnot a land mask
            && (a = 0
               ||
               let _, _, q, _ = run Opcode.Divl3 in
               q = (s32 b / s32 a) land mask)));
    qt ~count:150 "MOVB merges the low byte into a register, N from bit 7, C kept"
      (QCheck.triple w32 w32 cc_arb) (fun (src, dst, cc) ->
        on_both (fun engine ->
            let _, d, _, (n, z, v, c) =
              run_data ~engine ~cc (Opcode.Movb, [ r 1; r 2 ]) (src, dst, 0)
            in
            d = dst land 0xFFFF_FF00 lor (src land 0xFF)
            && n = (src land 0x80 <> 0) && z = (src land 0xFF = 0) && (not v)
            && c = c_of cc));
    qt ~count:150 "CMPB: N from the signed, C from the unsigned byte compare"
      (QCheck.pair w32 w32) (fun (a, b) ->
        on_both (fun engine ->
            let _, _, _, (n, z, v, c) =
              run_data ~engine (Opcode.Cmpb, [ r 1; r 2 ]) (a, b, 0)
            in
            n = (sext8 a < sext8 b) && z = (a land 0xFF = b land 0xFF)
            && (not v) && c = (a land 0xFF < b land 0xFF)));
    qt ~count:150 "TSTB: N from bit 7, Z of the low byte, V and C clear"
      (QCheck.pair w32 cc_arb) (fun (x, cc) ->
        on_both (fun engine ->
            let x', _, _, (n, z, v, c) =
              run_data ~engine ~cc (Opcode.Tstb, [ r 1 ]) (x, 0, 0)
            in
            x' = x && n = (x land 0x80 <> 0) && z = (x land 0xFF = 0)
            && (not v) && not c));
    qt ~count:150 "CLRB clears the low byte of a register, C kept"
      (QCheck.pair w32 cc_arb) (fun (x, cc) ->
        on_both (fun engine ->
            let _, d, _, (n, z, v, c) =
              run_data ~engine ~cc (Opcode.Clrb, [ r 2 ]) (0, x, 0)
            in
            d = x land 0xFFFF_FF00 && (not n) && z && (not v) && c = c_of cc));
    qt ~count:150 "INCL and DECL at the ^x7FFFFFFF and 0 boundaries" edge32 (fun x ->
        on_both (fun engine ->
            let _, i, _, (n, z, v, c) =
              run_data ~engine (Opcode.Incl, [ r 2 ]) (0, x, 0)
            in
            let inc_ok =
              i = (x + 1) land mask
              && n = (s32 i < 0) && z = (i = 0) && v = (x = 0x7FFF_FFFF)
              && c = (x = 0xFFFF_FFFF)
            in
            let _, d, _, (n, z, v, c) =
              run_data ~engine (Opcode.Decl, [ r 2 ]) (0, x, 0)
            in
            inc_ok
            && d = (x - 1) land mask
            && n = (s32 d < 0) && z = (d = 0) && v = (x = 0x8000_0000)
            && c = (x = 0)));
    qt ~count:150 "MOVL and CLRL keep C, TSTL clears it" (QCheck.pair w32 cc_arb)
      (fun (x, cc) ->
        on_both (fun engine ->
            let _, m, _, (n, z, v, c) =
              run_data ~engine ~cc (Opcode.Movl, [ r 1; r 2 ]) (x, 0, 0)
            in
            let mov_ok =
              m = x && n = (s32 x < 0) && z = (x = 0) && (not v) && c = c_of cc
            in
            let _, k, _, (n, z, v, c) =
              run_data ~engine ~cc (Opcode.Clrl, [ r 2 ]) (0, x, 0)
            in
            let clr_ok = k = 0 && (not n) && z && (not v) && c = c_of cc in
            let _, _, _, (n, z, v, c) =
              run_data ~engine ~cc (Opcode.Tstl, [ r 1 ]) (x, 0, 0)
            in
            mov_ok && clr_ok && n = (s32 x < 0) && z = (x = 0) && (not v)
            && not c));
    qt ~count:150 "DIVL ^x80000000 / -1 stores ^x80000000 with N and V set" cc_arb
      (fun cc ->
        on_both (fun engine ->
            let operands =
              [ (Opcode.Divl3, [ r 1; r 2; r 3 ]); (Opcode.Divl2, [ r 1; r 3 ]) ]
            in
            List.for_all
              (fun insn ->
                let _, _, q, flags =
                  run_data ~engine ~cc insn (0xFFFF_FFFF, 0x8000_0000, 0x8000_0000)
                in
                q = 0x8000_0000 && flags = (true, false, true, false))
              operands));
  ]

(* push/pop round trip over random sequences *)
let stack_prop =
  qt "PUSHL/pop sequences preserve values"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8) w32)
    (fun vs ->
      let cpu = Cpu.create () in
      let asm = Asm.create ~origin:0x1000 in
      List.iteri
        (fun i v ->
          ignore v;
          Asm.ins asm Opcode.Movl
            [ Asm.Imm (List.nth vs i); Asm.R 1 ];
          Asm.ins asm Opcode.Pushl [ Asm.R 1 ])
        vs;
      List.iteri
        (fun i _ -> Asm.ins asm Opcode.Movl [ Asm.Postinc Asm.sp; Asm.R (2 + (i mod 8)) ])
        vs;
      Asm.ins asm Opcode.Halt [];
      let img = Asm.assemble asm in
      Cpu.load cpu 0x1000 img.Asm.code;
      State.set_pc cpu.Cpu.state 0x1000;
      State.set_sp cpu.Cpu.state 0x8000;
      ignore (Cpu.run cpu ~max_instructions:200 ());
      (* first value popped = last pushed *)
      State.reg cpu.Cpu.state 2 = List.nth vs (List.length vs - 1)
      && State.sp cpu.Cpu.state = 0x8000)

(* assembler -> disassembler agreement on mnemonics and lengths *)
let gen_safe_instr =
  QCheck.Gen.(
    let reg = int_bound 11 in
    oneof
      [
        map2 (fun v r -> (Opcode.Movl, [ Asm.Imm (v land 0xFFFFFF); Asm.R r ])) int reg;
        map2 (fun a b -> (Opcode.Addl2, [ Asm.R a; Asm.R b ])) reg reg;
        map2 (fun a b -> (Opcode.Cmpl, [ Asm.R a; Asm.R b ])) reg reg;
        map (fun r -> (Opcode.Incl, [ Asm.R r ])) reg;
        map (fun r -> (Opcode.Pushl, [ Asm.R r ])) reg;
        map2 (fun d r -> (Opcode.Movl, [ Asm.Disp ((d land 0xFF) - 128, r); Asm.R 0 ])) int reg;
        map (fun r -> (Opcode.Tstl, [ Asm.Deref r ])) reg;
        return (Opcode.Nop, []);
      ])

let roundtrip_prop =
  qt "disassembler inverts the assembler"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 20) gen_safe_instr)
       ~print:(fun l -> Printf.sprintf "<%d instrs>" (List.length l)))
    (fun instrs ->
      let a = Asm.create ~origin:0x3000 in
      List.iter (fun (op, ops) -> Asm.ins a op ops) instrs;
      let img = Asm.assemble a in
      let decoded = Disasm.decode_all img.Asm.code ~base:0x3000 in
      List.length decoded = List.length instrs
      && List.for_all2
           (fun (op, _) (i : Disasm.insn) -> i.Disasm.mnemonic = Opcode.name op)
           instrs decoded)

let test_disasm_rendering () =
  let a = Asm.create ~origin:0x1000 in
  Asm.ins a Opcode.Movl [ Asm.Imm 5; Asm.R 0 ];
  Asm.ins a Opcode.Brb [ Asm.Branch "l" ];
  Asm.label a "l";
  Asm.ins a Opcode.Halt [];
  let img = Asm.assemble a in
  let all = Disasm.decode_all img.Asm.code ~base:0x1000 in
  match all with
  | [ mov; brb; halt ] ->
      Alcotest.(check string) "mov" "1000: MOVL #0x5, R0" (Disasm.to_string mov);
      Alcotest.(check string) "brb target" "1007: BRB 0x1009"
        (Disasm.to_string brb);
      Alcotest.(check string) "halt" "1009: HALT" (Disasm.to_string halt)
  | l -> Alcotest.failf "expected 3 instructions, got %d" (List.length l)

(* Goldens for the operand text, which [Disasm.to_string] renders from
   the decoded specifiers on demand: one instruction per specifier kind
   (each displacement width, plain and deferred), both branch widths and
   a data byte.  The vaxlint report's "insn" fields are this text. *)
let test_disasm_goldens () =
  let a = Asm.create ~origin:0x1000 in
  Asm.ins a Opcode.Movl [ Asm.Lit 7; Asm.R 1 ];
  Asm.ins a Opcode.Movl [ Asm.Deref 2; Asm.Predec Asm.sp ];
  Asm.ins a Opcode.Movl [ Asm.Postinc 3; Asm.Postinc_deref 4 ];
  Asm.ins a Opcode.Movl [ Asm.Imm 0x12345; Asm.Abs 0x2000 ];
  Asm.ins a Opcode.Movl [ Asm.Disp (8, 5); Asm.Disp_deref (-4, Asm.fp) ];
  Asm.ins a Opcode.Movl [ Asm.Disp (300, 6); Asm.Disp_deref (-1000, Asm.ap) ];
  Asm.ins a Opcode.Movl [ Asm.Disp (100000, 7); Asm.Disp_deref (-70000, 8) ];
  Asm.ins a Opcode.Tstl [ Asm.Disp (16, Asm.pc) ];
  Asm.label a "back";
  Asm.ins a Opcode.Bneq [ Asm.Branch "back" ];
  Asm.ins a Opcode.Brw [ Asm.Branch "end" ];
  Asm.ins a Opcode.Movb [ Asm.Imm 0xAB; Asm.R 0 ];
  Asm.label a "end";
  Asm.ins a Opcode.Halt [];
  Asm.byte a 0xFF;
  let img = Asm.assemble a in
  Alcotest.(check (list string))
    "rendered text"
    [
      "1000: MOVL S^#7, R1";
      "1003: MOVL (R2), -(SP)";
      "1006: MOVL (R3)+, @(R4)+";
      "1009: MOVL #0x12345, @#0x2000";
      "1014: MOVL 8(R5), @-4(FP)";
      "1019: MOVL 300(R6), @-1000(AP)";
      "1020: MOVL 100000(R7), @-70000(R8)";
      "102b: TSTL 16(PC)";
      "102e: BNEQ 0x102e";
      "1030: BRW 0x1037";
      "1033: MOVB #0xab, R0";
      "1037: HALT";
      "1038: .byte 0xff";
    ]
    (List.map Disasm.to_string
       (Disasm.decode_all ~resync:true img.Asm.code ~base:0x1000))

let () =
  Alcotest.run "exec_props"
    [
      ("semantics", exec_props);
      ("data", data_props);
      ( "ashl",
        [ Alcotest.test_case "exhaustive counts x sign patterns" `Quick
            ashl_exhaustive ] );
      ("stack", [ stack_prop ]);
      ( "disasm",
        [
          roundtrip_prop;
          Alcotest.test_case "rendering" `Quick test_disasm_rendering;
          Alcotest.test_case "rendering goldens" `Quick test_disasm_goldens;
        ] );
    ]
