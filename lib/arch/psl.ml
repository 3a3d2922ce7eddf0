type t = Word.t

let bit_c = 0
let bit_v = 1
let bit_z = 2
let bit_n = 3
let bit_t = 4
let bit_iv = 5
let pos_ipl = 16
let pos_prv = 22
let pos_cur = 24
let bit_is = 26
let bit_fpd = 27
let bit_vm = 29

let initial =
  Word.insert 0 ~pos:pos_ipl ~width:5 31 |> fun p -> Word.set_bit p bit_is true

let c p = Word.bit p bit_c
let v p = Word.bit p bit_v
let z p = Word.bit p bit_z
let n p = Word.bit p bit_n
let t_bit p = Word.bit p bit_t
let iv p = Word.bit p bit_iv

let with_c p b = Word.set_bit p bit_c b
let with_v p b = Word.set_bit p bit_v b
let with_z p b = Word.set_bit p bit_z b
let with_n p b = Word.set_bit p bit_n b

let with_nzvc p ~n ~z ~v ~c =
  let cc =
    (if n then 8 else 0) lor (if z then 4 else 0) lor (if v then 2 else 0)
    lor if c then 1 else 0
  in
  Word.insert p ~pos:0 ~width:4 cc

let ipl p = Word.extract p ~pos:pos_ipl ~width:5
let with_ipl p l = Word.insert p ~pos:pos_ipl ~width:5 l

let cur p = Mode.of_int (Word.extract p ~pos:pos_cur ~width:2)
let prv p = Mode.of_int (Word.extract p ~pos:pos_prv ~width:2)
let with_cur p m = Word.insert p ~pos:pos_cur ~width:2 (Mode.to_int m)
let with_prv p m = Word.insert p ~pos:pos_prv ~width:2 (Mode.to_int m)

let is p = Word.bit p bit_is
let with_is p b = Word.set_bit p bit_is b
let fpd p = Word.bit p bit_fpd
let with_fpd p b = Word.set_bit p bit_fpd b
let vm p = Word.bit p bit_vm
let with_vm p b = Word.set_bit p bit_vm b
let vm_bit_mask = 1 lsl bit_vm

(* Bits 6-15, 21, 28, 29, 30, 31 must be zero in any PSL image loaded by
   REI.  Bit 29 (VM) is deliberately in the MBZ set: the VMM's microcode
   REI path sets it out-of-band. *)
let mbz_mask =
  let open Word in
  lognot
    (0xF (* NZVC *) lor (1 lsl bit_t) lor (1 lsl bit_iv)
    lor (0x1F lsl pos_ipl)
    lor (3 lsl pos_prv) lor (3 lsl pos_cur) lor (1 lsl bit_is)
    lor (1 lsl bit_fpd))

let mbz_violation p = Word.logand p mbz_mask <> 0

let stack_slot p = if is p then 4 else Mode.to_int (cur p)

let merge_vmpsl p ~vmpsl =
  let p = with_cur p (cur vmpsl) in
  let p = with_prv p (prv vmpsl) in
  let p = with_ipl p (ipl vmpsl) in
  with_vm (with_is p (is vmpsl)) false

let rei_valid ~current ~stacked ~may_enter_vm =
  let c = Mode.to_int (cur current) and n = Mode.to_int (cur stacked) in
  n >= c
  && Mode.to_int (prv stacked) >= n
  && ((not (is stacked)) || (is current && n = 0))
  && ipl stacked <= ipl current
  && (n = 0 || ipl stacked = 0)
  && ((not (vm stacked)) || (may_enter_vm && c = 0 && not (vm current)))
  && not (mbz_violation (with_vm stacked false))

let pp ppf p =
  Format.fprintf ppf "cur=%a prv=%a ipl=%d is=%d%s NZVC=%d%d%d%d" Mode.pp
    (cur p) Mode.pp (prv p) (ipl p)
    (if is p then 1 else 0)
    (if vm p then " VM" else "")
    (if n p then 1 else 0)
    (if z p then 1 else 0)
    (if v p then 1 else 0)
    (if c p then 1 else 0)
