open Vax_arch

type loc = Reg of int | Mem of Word.t | Imm of Word.t

type operand = {
  loc : loc;
  value : Word.t;
  width : Opcode.width;
  access : Opcode.access;
  side_effect : (int * int) option;
  branch_target : Word.t option;
}

type decoded = {
  opcode : Opcode.t;
  operands : operand list;
  length : int;
  next_pc : Word.t;
  tmpl : Decode_cache.template;
}

let undecoded =
  {
    opcode = Opcode.Halt;
    operands = [];
    length = 0;
    next_pc = 0;
    tmpl = { Decode_cache.t_opcode = Opcode.Halt; t_specs = []; t_len = 0 };
  }

let width_bytes = function Opcode.Byte -> 1 | Opcode.Word -> 2 | Opcode.Long -> 4

(* A decode in progress: a byte cursor and the undo log of register side
   effects.  Replays of a cached template reuse the same cursor record;
   only [start] and the undo log matter then. *)
type cursor = {
  st : State.t;
  start : Word.t;
  mutable pos : Word.t;
  mutable applied : (int * int) list;
}

let fetch_byte c =
  let b = State.fetch_byte c.st c.pos in
  c.pos <- Word.add c.pos 1;
  b

let fetch_width c = function
  | Opcode.Byte -> fetch_byte c
  | Opcode.Word ->
      let b0 = fetch_byte c in
      let b1 = fetch_byte c in
      b0 lor (b1 lsl 8)
  | Opcode.Long ->
      let b0 = fetch_byte c in
      let b1 = fetch_byte c in
      let b2 = fetch_byte c in
      let b3 = fetch_byte c in
      Word.of_bytes b0 b1 b2 b3

let apply_side_effect c rn delta =
  State.set_reg c.st rn (Word.add (State.reg c.st rn) delta);
  c.applied <- (rn, delta) :: c.applied

let undo_all c =
  List.iter
    (fun (rn, delta) -> State.set_reg c.st rn (Word.sub (State.reg c.st rn) delta))
    c.applied;
  c.applied <- []

let read_mem c width va =
  match width with
  | Opcode.Byte -> State.read_byte c.st (State.cur_mode c.st) va
  | Opcode.Word -> State.read_word16 c.st (State.cur_mode c.st) va
  | Opcode.Long -> State.read_long c.st (State.cur_mode c.st) va

let reserved_addressing () = raise (State.Fault State.Reserved_addressing)

(* ------------------------------------------------------------------ *)
(* Static half: parse one specifier's bytes into its shape.  All the
   addressing-legality checks are static (they depend only on the mode
   byte and the access type), so a shape that parsed once never needs
   rechecking on replay. *)

let mk_tspec c access width shape =
  {
    Decode_cache.t_access = access;
    t_width = width;
    t_shape = shape;
    t_after = Word.sub c.pos c.start;
  }

let parse_specifier c (access, width) =
  let b = fetch_byte c in
  let m = b lsr 4 and rn = b land 0xF in
  let writable = match access with
    | Opcode.Write | Opcode.Modify -> true
    | Opcode.Read | Opcode.Address | Opcode.Branch_byte | Opcode.Branch_word ->
        false
  in
  let shape =
    match m with
    | 0 | 1 | 2 | 3 ->
        (* short literal *)
        if writable || access = Opcode.Address then reserved_addressing ();
        Decode_cache.Sh_literal (b land 0x3F)
    | 4 -> reserved_addressing () (* indexed: outside the subset *)
    | 5 ->
        if access = Opcode.Address then reserved_addressing ();
        if rn = 15 then reserved_addressing ();
        Decode_cache.Sh_register rn
    | 6 -> Decode_cache.Sh_reg_deferred rn
    | 7 ->
        if rn = 15 then reserved_addressing ();
        Decode_cache.Sh_autodec rn
    | 8 ->
        if rn = 15 then begin
          (* immediate *)
          if writable || access = Opcode.Address then reserved_addressing ();
          Decode_cache.Sh_literal (fetch_width c width)
        end
        else Decode_cache.Sh_autoinc rn
    | 9 ->
        if rn = 15 then
          (* absolute *)
          Decode_cache.Sh_absolute (fetch_width c Opcode.Long)
        else Decode_cache.Sh_autoinc_deferred rn
    | 0xA | 0xB ->
        Decode_cache.Sh_disp
          { rn; disp = Word.sext ~width:8 (fetch_byte c); deferred = m = 0xB }
    | 0xC | 0xD ->
        Decode_cache.Sh_disp
          {
            rn;
            disp = Word.sext ~width:16 (fetch_width c Opcode.Word);
            deferred = m = 0xD;
          }
    | 0xE | 0xF ->
        Decode_cache.Sh_disp
          { rn; disp = fetch_width c Opcode.Long; deferred = m = 0xF }
    | _ -> assert false
  in
  mk_tspec c access width shape

let parse_branch c access =
  let disp, width =
    match access with
    | Opcode.Branch_byte -> (Word.sext ~width:8 (fetch_byte c), Opcode.Byte)
    | Opcode.Branch_word ->
        (Word.sext ~width:16 (fetch_width c Opcode.Word), Opcode.Word)
    | _ -> assert false
  in
  mk_tspec c access width (Decode_cache.Sh_branch disp)

(* ------------------------------------------------------------------ *)
(* Dynamic half: evaluate a shape against current machine state.  Both a
   fresh decode and a cached replay come through here, so evaluation
   order, side effects, and cycle charges are identical in the two
   paths. *)

let no_value = -1

let mk c access width loc side_effect =
  let value =
    match access with
    | Opcode.Read | Opcode.Modify -> (
        match loc with
        | Imm v -> v
        | Reg rn -> (
            let v = State.reg c.st rn in
            match width with
            | Opcode.Byte -> v land 0xFF
            | Opcode.Word -> v land 0xFFFF
            | Opcode.Long -> v)
        | Mem va -> read_mem c width va)
    | Opcode.Write | Opcode.Address | Opcode.Branch_byte | Opcode.Branch_word
      ->
        no_value
  in
  { loc; value; width; access; side_effect; branch_target = None }

let eval_spec c
    { Decode_cache.t_access = access; t_width = width; t_shape; t_after } =
  (* the decode-cursor position just past this specifier: what reads of
     the PC observe, per the VAX rule that PC-relative computations see
     the updated PC *)
  let after_va = Word.add c.start t_after in
  match t_shape with
  | Decode_cache.Sh_literal v -> mk c access width (Imm v) None
  | Decode_cache.Sh_register rn -> mk c access width (Reg rn) None
  | Decode_cache.Sh_reg_deferred rn ->
      let base = if rn = 15 then after_va else State.reg c.st rn in
      mk c access width (Mem base) None
  | Decode_cache.Sh_autodec rn ->
      let delta = -width_bytes width in
      apply_side_effect c rn delta;
      mk c access width (Mem (State.reg c.st rn)) (Some (rn, delta))
  | Decode_cache.Sh_autoinc rn ->
      let va = State.reg c.st rn in
      let delta = width_bytes width in
      apply_side_effect c rn delta;
      mk c access width (Mem va) (Some (rn, delta))
  | Decode_cache.Sh_autoinc_deferred rn ->
      let ptr = State.reg c.st rn in
      let va = State.read_long c.st (State.cur_mode c.st) ptr in
      apply_side_effect c rn 4;
      mk c access width (Mem va) (Some (rn, 4))
  | Decode_cache.Sh_absolute va -> mk c access width (Mem va) None
  | Decode_cache.Sh_disp { rn; disp; deferred } ->
      let base = if rn = 15 then after_va else State.reg c.st rn in
      let va = Word.add base disp in
      let va =
        if deferred then State.read_long c.st (State.cur_mode c.st) va else va
      in
      mk c access width (Mem va) None
  | Decode_cache.Sh_branch disp ->
      {
        loc = Imm disp;
        value = no_value;
        width;
        access;
        side_effect = None;
        branch_target = Some (Word.add after_va disp);
      }

(* ------------------------------------------------------------------ *)

let decode st =
  let c = { st; start = State.pc st; pos = State.pc st; applied = [] } in
  try
    let b0 = fetch_byte c in
    let opcode =
      if Opcode.is_extended_prefix b0 then begin
        let b1 = fetch_byte c in
        match Opcode.decode b0 ~second:b1 () with
        | Some op when st.State.variant = Variant.Virtualizing -> Some op
        | _ -> None
        (* the 0xFD page is reserved on the standard VAX *)
      end
      else Opcode.decode b0 ()
    in
    match opcode with
    | None -> raise (State.Fault State.Reserved_instruction)
    | Some opcode ->
        let rev_specs = ref [] in
        let operands =
          List.map
            (fun (access, width) ->
              Cycles.charge st.State.clock Cost.operand_specifier;
              let ts =
                match access with
                | Opcode.Branch_byte | Opcode.Branch_word ->
                    parse_branch c access
                | _ -> parse_specifier c (access, width)
              in
              rev_specs := ts :: !rev_specs;
              eval_spec c ts)
            (Opcode.operands opcode)
        in
        let length = Word.sub c.pos c.start in
        {
          opcode;
          operands;
          length;
          next_pc = c.pos;
          tmpl =
            {
              Decode_cache.t_opcode = opcode;
              t_specs = List.rev !rev_specs;
              t_len = length;
            };
        }
  with e ->
    undo_all c;
    raise e

(* the cached specifiers in order, each charged as it is evaluated *)
let rec eval_specs c = function
  | [] -> []
  | ts :: rest ->
      Cycles.charge c.st.State.clock Cost.operand_specifier;
      let o = eval_spec c ts in
      o :: eval_specs c rest

let operandize st (tmpl : Decode_cache.template) ~start_pc =
  let c = { st; start = start_pc; pos = start_pc; applied = [] } in
  try
    let operands = eval_specs c tmpl.Decode_cache.t_specs in
    {
      opcode = tmpl.Decode_cache.t_opcode;
      operands;
      length = tmpl.Decode_cache.t_len;
      next_pc = Word.add start_pc tmpl.Decode_cache.t_len;
      tmpl;
    }
  with e ->
    undo_all c;
    raise e

let rec shift_side_effects st sign = function
  | [] -> ()
  | o :: rest ->
      (match o.side_effect with
      | Some (rn, delta) ->
          State.set_reg st rn (Word.add (State.reg st rn) (sign * delta))
      | None -> ());
      shift_side_effects st sign rest

let undo_side_effects st d = shift_side_effects st (-1) d.operands

let read_value st o =
  if o.value <> no_value then o.value
  else (
      match o.loc with
      | Imm v -> v
      | Reg rn -> State.reg st rn
      | Mem va -> (
          match o.width with
          | Opcode.Byte -> State.read_byte st (State.cur_mode st) va
          | Opcode.Word -> State.read_word16 st (State.cur_mode st) va
          | Opcode.Long -> State.read_long st (State.cur_mode st) va))

let write_value st o v =
  match o.loc with
  | Imm _ -> reserved_addressing ()
  | Reg rn -> (
      match o.width with
      | Opcode.Long -> State.set_reg st rn v
      | Opcode.Word ->
          State.set_reg st rn
            (Word.logor (Word.logand (State.reg st rn) 0xFFFF_0000) (v land 0xFFFF))
      | Opcode.Byte ->
          State.set_reg st rn
            (Word.logor (Word.logand (State.reg st rn) 0xFFFF_FF00) (v land 0xFF)))
  | Mem va -> (
      match o.width with
      | Opcode.Byte -> State.write_byte st (State.cur_mode st) va (v land 0xFF)
      | Opcode.Word -> State.write_word16 st (State.cur_mode st) va (v land 0xFFFF)
      | Opcode.Long -> State.write_long st (State.cur_mode st) va v)

let set_operand (x : State.exit_record) i tag value =
  x.State.x_op_tag.(i) <- tag;
  x.State.x_op_value.(i) <- value

let rec capture_operands (x : State.exit_record) i = function
  | [] -> x.State.x_noperands <- i
  | o :: rest ->
      (match (o.access, o.loc) with
      | (Opcode.Read | Opcode.Modify), Imm v -> set_operand x i 0 v
      | Opcode.Read, Reg _ | Opcode.Read, Mem _ ->
          set_operand x i 0 (if o.value = no_value then 0 else o.value)
      | Opcode.Modify, Reg rn -> set_operand x i 2 rn
      | Opcode.Modify, Mem va -> set_operand x i 1 va
      | Opcode.Write, Reg rn -> set_operand x i 2 rn
      | (Opcode.Write | Opcode.Address), Mem va -> set_operand x i 1 va
      | Opcode.Address, Reg _ | Opcode.Address, Imm _ -> set_operand x i 0 0
      | Opcode.Write, Imm v -> set_operand x i 0 v
      | (Opcode.Branch_byte | Opcode.Branch_word), _ ->
          set_operand x i 3 (Option.value ~default:0 o.branch_target));
      x.State.x_op_side_effect.(i) <-
        (match o.side_effect with
        | Some (rn, delta) -> (rn lsl 8) lor (delta land 0xFF)
        | None -> -1);
      capture_operands x (i + 1) rest

let capture_vm_operands x d = capture_operands x 0 d.operands
