type access = Read | Write | Modify | Address | Branch_byte | Branch_word
type width = Byte | Word | Long

type t =
  | Halt
  | Nop
  | Rei
  | Bpt
  | Ret
  | Rsb
  | Ldpctx
  | Svpctx
  | Prober
  | Probew
  | Bsbb
  | Brb
  | Bneq
  | Beql
  | Bgtr
  | Bleq
  | Jsb
  | Jmp
  | Bgeq
  | Blss
  | Bgtru
  | Blequ
  | Bvc
  | Bvs
  | Bcc
  | Bcs
  | Brw
  | Movb
  | Cmpb
  | Clrb
  | Tstb
  | Movzbl
  | Bispsw
  | Bicpsw
  | Chmk
  | Chme
  | Chms
  | Chmu
  | Addl2
  | Addl3
  | Subl2
  | Subl3
  | Mull2
  | Mull3
  | Divl2
  | Divl3
  | Bisl2
  | Bisl3
  | Bicl2
  | Bicl3
  | Xorl2
  | Xorl3
  | Mnegl
  | Ashl
  | Movl
  | Cmpl
  | Clrl
  | Tstl
  | Incl
  | Decl
  | Mtpr
  | Mfpr
  | Movpsl
  | Pushl
  | Moval
  | Blbs
  | Blbc
  | Aoblss
  | Sobgtr
  | Calls
  | Wait
  | Probevmr
  | Probevmw

let encoding = function
  | Halt -> [ 0x00 ]
  | Nop -> [ 0x01 ]
  | Rei -> [ 0x02 ]
  | Bpt -> [ 0x03 ]
  | Ret -> [ 0x04 ]
  | Rsb -> [ 0x05 ]
  | Ldpctx -> [ 0x06 ]
  | Svpctx -> [ 0x07 ]
  | Prober -> [ 0x0C ]
  | Probew -> [ 0x0D ]
  | Bsbb -> [ 0x10 ]
  | Brb -> [ 0x11 ]
  | Bneq -> [ 0x12 ]
  | Beql -> [ 0x13 ]
  | Bgtr -> [ 0x14 ]
  | Bleq -> [ 0x15 ]
  | Jsb -> [ 0x16 ]
  | Jmp -> [ 0x17 ]
  | Bgeq -> [ 0x18 ]
  | Blss -> [ 0x19 ]
  | Bgtru -> [ 0x1A ]
  | Blequ -> [ 0x1B ]
  | Bvc -> [ 0x1C ]
  | Bvs -> [ 0x1D ]
  | Bcc -> [ 0x1E ]
  | Bcs -> [ 0x1F ]
  | Brw -> [ 0x31 ]
  | Movb -> [ 0x90 ]
  | Cmpb -> [ 0x91 ]
  | Clrb -> [ 0x94 ]
  | Tstb -> [ 0x95 ]
  | Movzbl -> [ 0x9A ]
  | Bispsw -> [ 0xB8 ]
  | Bicpsw -> [ 0xB9 ]
  | Chmk -> [ 0xBC ]
  | Chme -> [ 0xBD ]
  | Chms -> [ 0xBE ]
  | Chmu -> [ 0xBF ]
  | Addl2 -> [ 0xC0 ]
  | Addl3 -> [ 0xC1 ]
  | Subl2 -> [ 0xC2 ]
  | Subl3 -> [ 0xC3 ]
  | Mull2 -> [ 0xC4 ]
  | Mull3 -> [ 0xC5 ]
  | Divl2 -> [ 0xC6 ]
  | Divl3 -> [ 0xC7 ]
  | Bisl2 -> [ 0xC8 ]
  | Bisl3 -> [ 0xC9 ]
  | Bicl2 -> [ 0xCA ]
  | Bicl3 -> [ 0xCB ]
  | Xorl2 -> [ 0xCC ]
  | Xorl3 -> [ 0xCD ]
  | Mnegl -> [ 0xCE ]
  | Ashl -> [ 0x78 ]
  | Movl -> [ 0xD0 ]
  | Cmpl -> [ 0xD1 ]
  | Clrl -> [ 0xD4 ]
  | Tstl -> [ 0xD5 ]
  | Incl -> [ 0xD6 ]
  | Decl -> [ 0xD7 ]
  | Mtpr -> [ 0xDA ]
  | Mfpr -> [ 0xDB ]
  | Movpsl -> [ 0xDC ]
  | Pushl -> [ 0xDD ]
  | Moval -> [ 0xDE ]
  | Blbs -> [ 0xE8 ]
  | Blbc -> [ 0xE9 ]
  | Aoblss -> [ 0xF2 ]
  | Sobgtr -> [ 0xF5 ]
  | Calls -> [ 0xFB ]
  | Wait -> [ 0xFD; 0x01 ]
  | Probevmr -> [ 0xFD; 0x0C ]
  | Probevmw -> [ 0xFD; 0x0D ]

let code op =
  match encoding op with
  | [ b ] -> b
  | [ p; b ] -> (p lsl 8) lor b
  | _ -> assert false

let index op =
  let c = code op in
  if c < 0x100 then c else 0x100 lor (c land 0xFF)

let index_count = 0x200

let all =
  [
    Halt; Nop; Rei; Bpt; Ret; Rsb; Ldpctx; Svpctx; Prober; Probew; Bsbb; Brb;
    Bneq; Beql; Bgtr; Bleq; Jsb; Jmp; Bgeq; Blss; Bgtru; Blequ; Bvc; Bvs; Bcc;
    Bcs; Brw; Movb; Cmpb; Clrb; Tstb; Movzbl; Bispsw; Bicpsw; Chmk; Chme;
    Chms; Chmu; Addl2; Addl3; Subl2; Subl3; Mull2; Mull3; Divl2; Divl3; Bisl2;
    Bisl3; Bicl2; Bicl3; Xorl2; Xorl3; Mnegl; Ashl; Movl; Cmpl; Clrl; Tstl; Incl;
    Decl; Mtpr; Mfpr; Movpsl; Pushl; Moval; Blbs; Blbc; Aoblss; Sobgtr; Calls;
    Wait; Probevmr; Probevmw;
  ]

let one_byte_table =
  let t = Array.make 256 None in
  let fill op =
    match encoding op with [ b ] -> t.(b) <- Some op | _ -> ()
  in
  List.iter fill all;
  t

let extended_table =
  let t = Array.make 256 None in
  let fill op =
    match encoding op with [ 0xFD; b ] -> t.(b) <- Some op | _ -> ()
  in
  List.iter fill all;
  t

let is_extended_prefix b = b = 0xFD

let decode b ?second () =
  if is_extended_prefix b then
    match second with None -> None | Some s -> extended_table.(s land 0xFF)
  else one_byte_table.(b land 0xFF)

let operands = function
  | Halt | Nop | Rei | Bpt | Ret | Rsb | Ldpctx | Svpctx | Wait -> []
  | Prober | Probew ->
      [ (Read, Byte); (Read, Word); (Address, Byte) ]
      (* mode.rb, len.rw, base.ab *)
  | Probevmr | Probevmw -> [ (Read, Byte); (Address, Byte) ] (* mode.rb, base.ab *)
  | Bsbb | Brb | Bneq | Beql | Bgtr | Bleq | Bgeq | Blss | Bgtru | Blequ
  | Bvc | Bvs | Bcc | Bcs ->
      [ (Branch_byte, Byte) ]
  | Brw -> [ (Branch_word, Word) ]
  | Jsb | Jmp -> [ (Address, Byte) ]
  | Movb -> [ (Read, Byte); (Write, Byte) ]
  | Cmpb -> [ (Read, Byte); (Read, Byte) ]
  | Clrb -> [ (Write, Byte) ]
  | Tstb -> [ (Read, Byte) ]
  | Movzbl -> [ (Read, Byte); (Write, Long) ]
  | Bispsw | Bicpsw -> [ (Read, Word) ]
  | Chmk | Chme | Chms | Chmu -> [ (Read, Word) ]
  | Addl2 | Subl2 | Mull2 | Divl2 | Bisl2 | Bicl2 | Xorl2 ->
      [ (Read, Long); (Modify, Long) ]
  | Addl3 | Subl3 | Mull3 | Divl3 | Bisl3 | Bicl3 | Xorl3 ->
      [ (Read, Long); (Read, Long); (Write, Long) ]
  | Mnegl -> [ (Read, Long); (Write, Long) ]
  | Ashl -> [ (Read, Byte); (Read, Long); (Write, Long) ]
  | Movl -> [ (Read, Long); (Write, Long) ]
  | Cmpl -> [ (Read, Long); (Read, Long) ]
  | Clrl -> [ (Write, Long) ]
  | Tstl -> [ (Read, Long) ]
  | Incl | Decl -> [ (Modify, Long) ]
  | Mtpr -> [ (Read, Long); (Read, Long) ] (* src.rl, regnum.rl *)
  | Mfpr -> [ (Read, Long); (Write, Long) ] (* regnum.rl, dst.wl *)
  | Movpsl -> [ (Write, Long) ]
  | Pushl -> [ (Read, Long) ]
  | Moval -> [ (Address, Long); (Write, Long) ]
  | Blbs | Blbc -> [ (Read, Long); (Branch_byte, Byte) ]
  | Aoblss -> [ (Read, Long); (Modify, Long); (Branch_byte, Byte) ]
  | Sobgtr -> [ (Modify, Long); (Branch_byte, Byte) ]
  | Calls -> [ (Read, Long); (Address, Byte) ]

type sensitivity =
  | Innocuous
  | Privileged
  | Traps_in_vm
  | Composed_in_vm
  | Traps_on_condition

let sensitivity = function
  | Halt | Ldpctx | Svpctx | Mtpr | Mfpr | Probevmr | Probevmw | Wait ->
      Privileged
  | Chmk | Chme | Chms | Chmu | Rei -> Traps_in_vm
  | Movpsl -> Composed_in_vm
  | Prober | Probew -> Traps_on_condition
  | _ -> Innocuous

let privileged op = sensitivity op = Privileged

let base_cycles = function
  | Nop -> 1
  | Movl | Movb | Movzbl | Clrl | Clrb | Tstl | Tstb | Incl | Decl | Pushl
  | Moval | Mnegl ->
      2
  | Addl2 | Addl3 | Subl2 | Subl3 | Bisl2 | Bisl3 | Bicl2 | Bicl3 | Xorl2
  | Xorl3 | Cmpl | Cmpb ->
      2
  | Ashl -> 4
  | Mull2 | Mull3 -> 12
  | Divl2 | Divl3 -> 20
  | Brb | Brw | Bneq | Beql | Bgtr | Bleq | Bgeq | Blss | Bgtru | Blequ | Bvc
  | Bvs | Bcc | Bcs | Blbs | Blbc ->
      3
  | Bsbb | Jsb | Jmp | Rsb -> 4
  | Aoblss | Sobgtr -> 4
  | Calls | Ret -> 16
  | Bispsw | Bicpsw -> 4
  | Movpsl -> 4
  | Prober | Probew -> 8
  | Probevmr | Probevmw -> 10
  | Chmk | Chme | Chms | Chmu -> 22
  | Rei -> 18
  | Mtpr | Mfpr -> 9
  | Ldpctx | Svpctx -> 30
  | Halt | Bpt | Wait -> 4

let name = function
  | Halt -> "HALT"
  | Nop -> "NOP"
  | Rei -> "REI"
  | Bpt -> "BPT"
  | Ret -> "RET"
  | Rsb -> "RSB"
  | Ldpctx -> "LDPCTX"
  | Svpctx -> "SVPCTX"
  | Prober -> "PROBER"
  | Probew -> "PROBEW"
  | Bsbb -> "BSBB"
  | Brb -> "BRB"
  | Bneq -> "BNEQ"
  | Beql -> "BEQL"
  | Bgtr -> "BGTR"
  | Bleq -> "BLEQ"
  | Jsb -> "JSB"
  | Jmp -> "JMP"
  | Bgeq -> "BGEQ"
  | Blss -> "BLSS"
  | Bgtru -> "BGTRU"
  | Blequ -> "BLEQU"
  | Bvc -> "BVC"
  | Bvs -> "BVS"
  | Bcc -> "BCC"
  | Bcs -> "BCS"
  | Brw -> "BRW"
  | Movb -> "MOVB"
  | Cmpb -> "CMPB"
  | Clrb -> "CLRB"
  | Tstb -> "TSTB"
  | Movzbl -> "MOVZBL"
  | Bispsw -> "BISPSW"
  | Bicpsw -> "BICPSW"
  | Chmk -> "CHMK"
  | Chme -> "CHME"
  | Chms -> "CHMS"
  | Chmu -> "CHMU"
  | Addl2 -> "ADDL2"
  | Addl3 -> "ADDL3"
  | Subl2 -> "SUBL2"
  | Subl3 -> "SUBL3"
  | Mull2 -> "MULL2"
  | Mull3 -> "MULL3"
  | Divl2 -> "DIVL2"
  | Divl3 -> "DIVL3"
  | Bisl2 -> "BISL2"
  | Bisl3 -> "BISL3"
  | Bicl2 -> "BICL2"
  | Bicl3 -> "BICL3"
  | Xorl2 -> "XORL2"
  | Xorl3 -> "XORL3"
  | Mnegl -> "MNEGL"
  | Ashl -> "ASHL"
  | Movl -> "MOVL"
  | Cmpl -> "CMPL"
  | Clrl -> "CLRL"
  | Tstl -> "TSTL"
  | Incl -> "INCL"
  | Decl -> "DECL"
  | Mtpr -> "MTPR"
  | Mfpr -> "MFPR"
  | Movpsl -> "MOVPSL"
  | Pushl -> "PUSHL"
  | Moval -> "MOVAL"
  | Blbs -> "BLBS"
  | Blbc -> "BLBC"
  | Aoblss -> "AOBLSS"
  | Sobgtr -> "SOBGTR"
  | Calls -> "CALLS"
  | Wait -> "WAIT"
  | Probevmr -> "PROBEVMR"
  | Probevmw -> "PROBEVMW"

let pp ppf op = Format.pp_print_string ppf (name op)

let chm_target = function
  | Chmk -> Some Mode.Kernel
  | Chme -> Some Mode.Executive
  | Chms -> Some Mode.Supervisor
  | Chmu -> Some Mode.User
  | _ -> None
