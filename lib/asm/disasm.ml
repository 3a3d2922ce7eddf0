open Vax_arch

type operand_text = string

type spec =
  | Literal of int  (* short literal S^#n, 0..63 *)
  | Index of int  (* [Rn] indexed prefix — outside the simulated subset *)
  | Register of int
  | Reg_deferred of int  (* (Rn) *)
  | Autodec of int  (* -(Rn) *)
  | Autoinc of int  (* (Rn)+ *)
  | Autoinc_deferred of int  (* @(Rn)+ *)
  | Immediate of int  (* #v — raw unsigned value of the operand width *)
  | Absolute of int  (* @#a *)
  | Disp of { rn : int; disp : int; deferred : bool; width : Opcode.width }
  | Branch_dest of int  (* resolved target address *)

type insn = {
  address : int;
  length : int;
  opcode : Opcode.t option;
  mnemonic : string;
  specs : spec list;
}

exception Truncated

let reg_name = function
  | 12 -> "AP"
  | 13 -> "FP"
  | 14 -> "SP"
  | 15 -> "PC"
  | n -> Printf.sprintf "R%d" n

let byte b pos = if pos >= Bytes.length b then raise Truncated
  else Char.code (Bytes.get b pos)

let word b pos = byte b pos lor (byte b (pos + 1) lsl 8)

let long b pos =
  byte b pos
  lor (byte b (pos + 1) lsl 8)
  lor (byte b (pos + 2) lsl 16)
  lor (byte b (pos + 3) lsl 24)

let width_bytes = function Opcode.Byte -> 1 | Opcode.Word -> 2 | Opcode.Long -> 4

let spec_to_string = function
  | Literal n -> Printf.sprintf "S^#%d" n
  | Index rn -> Printf.sprintf "[%s]?" (reg_name rn)
  | Register rn -> reg_name rn
  | Reg_deferred rn -> Printf.sprintf "(%s)" (reg_name rn)
  | Autodec rn -> Printf.sprintf "-(%s)" (reg_name rn)
  | Autoinc rn -> Printf.sprintf "(%s)+" (reg_name rn)
  | Autoinc_deferred rn -> Printf.sprintf "@(%s)+" (reg_name rn)
  | Immediate v -> Printf.sprintf "#%#x" v
  | Absolute a -> Printf.sprintf "@#%#x" a
  | Disp { rn; disp; deferred; _ } ->
      if deferred then Printf.sprintf "@%d(%s)" disp (reg_name rn)
      else Printf.sprintf "%d(%s)" disp (reg_name rn)
  | Branch_dest t -> Printf.sprintf "%#x" t

(* returns (spec, bytes consumed) *)
let specifier b pos width =
  let s = byte b pos in
  let m = s lsr 4 and rn = s land 0xF in
  match m with
  | 0 | 1 | 2 | 3 -> (Literal (s land 0x3F), 1)
  | 4 -> (Index rn, 1) (* not in the subset *)
  | 5 -> (Register rn, 1)
  | 6 -> (Reg_deferred rn, 1)
  | 7 -> (Autodec rn, 1)
  | 8 when rn = 15 ->
      let n = width_bytes width in
      let v =
        match width with
        | Opcode.Byte -> byte b (pos + 1)
        | Opcode.Word -> word b (pos + 1)
        | Opcode.Long -> long b (pos + 1)
      in
      (Immediate v, 1 + n)
  | 8 -> (Autoinc rn, 1)
  | 9 when rn = 15 -> (Absolute (long b (pos + 1)), 5)
  | 9 -> (Autoinc_deferred rn, 1)
  | 0xA | 0xB ->
      let disp = Word.to_signed (Word.sext ~width:8 (byte b (pos + 1))) in
      (Disp { rn; disp; deferred = m = 0xB; width = Opcode.Byte }, 2)
  | 0xC | 0xD ->
      let disp = Word.to_signed (Word.sext ~width:16 (word b (pos + 1))) in
      (Disp { rn; disp; deferred = m = 0xD; width = Opcode.Word }, 3)
  | 0xE | 0xF ->
      let disp = Word.to_signed (long b (pos + 1)) in
      (Disp { rn; disp; deferred = m = 0xF; width = Opcode.Long }, 5)
  | _ -> assert false

let decode_one b ~pos ~address =
  match
    let b0 = byte b pos in
    let opcode, oplen =
      if Opcode.is_extended_prefix b0 then
        (Opcode.decode b0 ~second:(byte b (pos + 1)) (), 2)
      else (Opcode.decode b0 (), 1)
    in
    Option.map
      (fun opcode ->
        let cur = ref (pos + oplen) in
        let specs =
          List.map
            (fun (access, width) ->
              match access with
              | Opcode.Branch_byte ->
                  let d = Word.to_signed (Word.sext ~width:8 (byte b !cur)) in
                  incr cur;
                  Branch_dest (address + (!cur - pos) + d)
              | Opcode.Branch_word ->
                  let d = Word.to_signed (Word.sext ~width:16 (word b !cur)) in
                  cur := !cur + 2;
                  Branch_dest (address + (!cur - pos) + d)
              | _ ->
                  let sp, n = specifier b !cur width in
                  cur := !cur + n;
                  sp)
            (Opcode.operands opcode)
        in
        {
          address;
          length = !cur - pos;
          opcode = Some opcode;
          mnemonic = Opcode.name opcode;
          specs;
        })
      opcode
  with
  | v -> v
  | exception Truncated -> None

(* Byte offset, relative to the instruction start, of the end of each
   operand specifier — the "updated PC" against which a PC-relative
   displacement in that operand is evaluated.  Recovered from the decoded
   specs (spec sizes are self-describing), so no re-decode is needed:
   opcode length = total length minus the sum of spec sizes.  Empty for
   [.byte] pseudo-instructions or if the spec list does not match the
   opcode's operand table (truncated decode). *)
let spec_ends (i : insn) =
  match i.opcode with
  | None -> []
  | Some op ->
      let accs = Opcode.operands op in
      if List.length accs <> List.length i.specs then []
      else
        let size (access, width) spec =
          match access with
          | Opcode.Branch_byte -> 1
          | Opcode.Branch_word -> 2
          | _ -> (
              match spec with
              | Literal _ | Index _ | Register _ | Reg_deferred _ | Autodec _
              | Autoinc _ | Autoinc_deferred _ ->
                  1
              | Immediate _ -> 1 + width_bytes width
              | Absolute _ -> 5
              | Disp { width = w; _ } -> 1 + width_bytes w
              | Branch_dest _ -> 2 (* unreachable: covered by access above *))
        in
        let sizes = List.map2 size accs i.specs in
        let oplen = i.length - List.fold_left ( + ) 0 sizes in
        List.rev
          (fst
             (List.fold_left
                (fun (acc, off) n -> ((off + n) :: acc, off + n))
                ([], oplen) sizes))

let data_byte b ~pos ~address =
  {
    address;
    length = 1;
    opcode = None;
    mnemonic = ".byte";
    specs = [ Immediate (byte b pos) ];
  }

let decode_all ?(resync = false) b ~base =
  let rec go pos acc =
    if pos >= Bytes.length b then List.rev acc
    else
      match decode_one b ~pos ~address:(base + pos) with
      | Some i -> go (pos + i.length) (i :: acc)
      | None ->
          if resync then
            (* skip one byte, mark it as data, and keep sweeping *)
            go (pos + 1) (data_byte b ~pos ~address:(base + pos) :: acc)
          else List.rev acc
  in
  go 0 []

(* Operand text is rendered here, on demand, rather than at decode time:
   only traces, tools and the vaxlint report ever read it. *)
let to_string i =
  match (i.opcode, i.specs) with
  | _, [] -> Printf.sprintf "%x: %s" i.address i.mnemonic
  | None, [ Immediate v ] -> Printf.sprintf "%x: %s %#x" i.address i.mnemonic v
  | _, specs ->
      Printf.sprintf "%x: %s %s" i.address i.mnemonic
        (String.concat ", " (List.map spec_to_string specs))
