open Vax_arch

type t = {
  compute : State.t -> Word.t -> Word.t -> Word.t;
  after : int;
  overflow : bool;
  push : bool;
}

let negative r = Word.to_signed r < 0

let add st a b =
  let r = Word.add a b in
  let v = negative a = negative b && negative r <> negative a in
  State.set_nzvc st ~n:(negative r) ~z:(r = 0) ~v ~c:(a + b > 0xFFFF_FFFF);
  r

let sub st a b =
  let r = Word.sub a b in
  let v = negative a <> negative b && negative r <> negative a in
  State.set_nzvc st ~n:(negative r) ~z:(r = 0) ~v ~c:(a < b);
  r

let mul st a b =
  let wide = Word.to_signed a * Word.to_signed b in
  let r = Word.of_signed wide in
  let v = wide < -0x8000_0000 || wide > 0x7FFF_FFFF in
  State.set_nzvc st ~n:(negative r) ~z:(r = 0) ~v ~c:false;
  r

(* dst <- b / a *)
let div st a b =
  match Word.div b a with
  | None ->
      (* partial CC write: materialize any deferred codes first, or the
         delivery below would overwrite the V just set *)
      State.sync_cc st;
      st.State.psl <- Psl.with_v st.State.psl true;
      raise (State.Fault (State.Arithmetic_trap 2))
  | Some r ->
      (* the one quotient that does not fit, ^x80000000 / -1, stores
         its truncation ^x80000000 and sets V *)
      let v = b = 0x8000_0000 && a = 0xFFFF_FFFF in
      State.set_nzvc st ~n:(negative r) ~z:(r = 0) ~v ~c:false;
      r

let logic st r =
  State.defer_cc st 1 r;
  r

let test st cls a =
  st.State.psl <- Psl.with_c st.State.psl false;
  State.defer_cc st cls a;
  a

let cmpl st a b =
  State.set_nzvc st
    ~n:(Word.to_signed a < Word.to_signed b)
    ~z:(a = b) ~v:false ~c:(a < b);
  0

let cmpb st a b =
  let sa = Word.to_signed (Word.sext ~width:8 a) in
  let sb = Word.to_signed (Word.sext ~width:8 b) in
  State.set_nzvc st ~n:(sa < sb) ~z:(sa = sb) ~v:false
    ~c:(a land 0xFF < b land 0xFF);
  0

let shift st cnt s =
  let r = Word.ashl ~cnt s in
  State.set_nzvc st ~n:(negative r) ~z:(r = 0)
    ~v:(Word.ashl_overflows ~cnt s) ~c:false;
  r

(* Entries are allocated once: [find] returns them without allocating. *)
let entry ?(after = 0) ?(overflow = false) ?(push = false) compute =
  Some { compute; after; overflow; push }

let move = entry ~after:1 (fun _ a _ -> a)
let move_byte = entry ~after:2 (fun _ a _ -> a land 0xFF)
let move_zext = entry ~after:1 (fun _ a _ -> a land 0xFF)
let clear = entry ~after:1 (fun _ _ _ -> 0)
let pushl = entry ~after:1 ~push:true (fun _ a _ -> a)
let tstl = entry (fun st a _ -> test st 1 a)
let tstb = entry (fun st a _ -> test st 2 a)
let compare_long = entry cmpl
let compare_byte = entry cmpb
let incl = entry ~overflow:true (fun st a _ -> add st a 1)
let decl = entry ~overflow:true (fun st a _ -> sub st a 1)
let mnegl = entry ~overflow:true (fun st a _ -> sub st 0 a)
let ashl = entry ~overflow:true shift
let addl = entry ~overflow:true add
let subl = entry ~overflow:true (fun st a b -> sub st b a)
let mull = entry ~overflow:true mul
let divl = entry ~overflow:true div
let bisl = entry (fun st a b -> logic st (Word.logor b a))
let bicl = entry (fun st a b -> logic st (Word.logand b (Word.lognot a)))
let xorl = entry (fun st a b -> logic st (Word.logxor b a))

let find = function
  | Opcode.Movl | Opcode.Moval -> move
  | Opcode.Movb -> move_byte
  | Opcode.Movzbl -> move_zext
  | Opcode.Clrl | Opcode.Clrb -> clear
  | Opcode.Pushl -> pushl
  | Opcode.Tstl -> tstl
  | Opcode.Tstb -> tstb
  | Opcode.Cmpl -> compare_long
  | Opcode.Cmpb -> compare_byte
  | Opcode.Incl -> incl
  | Opcode.Decl -> decl
  | Opcode.Mnegl -> mnegl
  | Opcode.Ashl -> ashl
  | Opcode.Addl2 | Opcode.Addl3 -> addl
  | Opcode.Subl2 | Opcode.Subl3 -> subl
  | Opcode.Mull2 | Opcode.Mull3 -> mull
  | Opcode.Divl2 | Opcode.Divl3 -> divl
  | Opcode.Bisl2 | Opcode.Bisl3 -> bisl
  | Opcode.Bicl2 | Opcode.Bicl3 -> bicl
  | Opcode.Xorl2 | Opcode.Xorl3 -> xorl
  | _ -> None
