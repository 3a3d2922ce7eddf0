open Vax_arch
open Vax_mem

type fault =
  | Mm_fault of Mmu.fault
  | Privileged_instruction
  | Reserved_instruction
  | Reserved_operand
  | Reserved_addressing
  | Breakpoint_fault
  | Chm_trap of { target : Mode.t; code : Word.t }
  | Arithmetic_trap of int
  | Vm_emulation_fault
  | Machine_check_fault of { mc_code : int; mc_pa : Word.t }

(* machine-check codes, the first parameter of the SCB 0x04 frame *)
let mc_nonexistent = 1
let mc_parity = 2

let mc_name = function
  | 1 -> "nonexistent memory"
  | 2 -> "memory parity"
  | _ -> "unknown"

exception Fault of fault

(* the three event kinds the vaxlint differential oracle tracks *)
type trap_kind = Trap_vm_emulation | Trap_privileged | Trap_modify

let trap_kind_name = function
  | Trap_vm_emulation -> "vm-emulation"
  | Trap_privileged -> "privileged"
  | Trap_modify -> "modify"

let pp_fault ppf = function
  | Mm_fault f -> Mmu.pp_fault ppf f
  | Privileged_instruction -> Format.pp_print_string ppf "privileged instruction"
  | Reserved_instruction -> Format.pp_print_string ppf "reserved instruction"
  | Reserved_operand -> Format.pp_print_string ppf "reserved operand"
  | Reserved_addressing -> Format.pp_print_string ppf "reserved addressing mode"
  | Breakpoint_fault -> Format.pp_print_string ppf "breakpoint"
  | Chm_trap { target; code } ->
      Format.fprintf ppf "CHM%c code=%a"
        (Char.uppercase_ascii (Mode.name target).[0])
        Word.pp code
  | Arithmetic_trap c -> Format.fprintf ppf "arithmetic trap %d" c
  | Vm_emulation_fault -> Format.pp_print_string ppf "VM-emulation trap"
  | Machine_check_fault { mc_code; mc_pa } ->
      Format.fprintf ppf "machine check (%s) pa=%a" (mc_name mc_code) Word.pp
        mc_pa

let max_vm_operands = 6
let max_frame_words = 4 + (3 * max_vm_operands) + 2 + 2

type exit_record = {
  mutable x_vector : Scb.vector;
  mutable x_pc : Word.t;
  mutable x_psl : Word.t;
  mutable x_interrupt : bool;
  mutable x_from_vm : bool;
  mutable x_nparams : int;
  x_params : Word.t array;
  mutable x_frame_words : int;
  mutable x_opcode : Opcode.t;
  mutable x_length : int;
  mutable x_vm_psl : Word.t;
  mutable x_noperands : int;
  x_op_tag : int array;
  x_op_value : Word.t array;
  x_op_side_effect : int array;
}

let create_exit_record () =
  {
    x_vector = 0;
    x_pc = 0;
    x_psl = 0;
    x_interrupt = false;
    x_from_vm = false;
    x_nparams = 0;
    x_params = Array.make 2 0;
    x_frame_words = 0;
    x_opcode = Opcode.Halt;
    x_length = 0;
    x_vm_psl = 0;
    x_noperands = 0;
    x_op_tag = Array.make max_vm_operands 0;
    x_op_value = Array.make max_vm_operands 0;
    x_op_side_effect = Array.make max_vm_operands (-1);
  }

type t = {
  variant : Variant.t;
  mmu : Mmu.t;
  clock : Cycles.t;
  dcache : Decode_cache.t;
  regs : Word.t array;
  mutable psl : Psl.t;
  mutable cc_lazy : int;
  mutable cc_value : Word.t;
  sp_bank : Word.t array;
  mutable vmpsl : Word.t;
  mutable vmpend : int;
  mutable ipl_assist : bool;
  mutable scbb : Word.t;
  mutable pcbb : Word.t;
  mutable sisr : int;
  mutable sid : Word.t;
  mutable pending_interrupts : (int * Scb.vector) list;
  exit : exit_record;
  frame : Word.t array;
  mutable agent : (exit_record -> unit) option;
  mutable ipr_read_hook : Ipr.t -> Word.t option;
  mutable ipr_write_hook : Ipr.t -> Word.t -> bool;
  mutable trap_observer : (trap_kind -> Word.t -> unit) option;
  mutable halted : bool;
  mutable double_fault : string option;
  mutable stop_requested : bool;
  mutable idle_hint : bool;
  mutable inject : Vax_fault.Engine.t;
  mutable instructions : int;
  mutable vm_instructions : int;
  mutable interrupts_taken : int;
  mutable frame_pushes_fast : int;
  exceptions_by_vector : int array;
  exceptions_elsewhere : (Scb.vector, int) Hashtbl.t;
  mutable trace : Vax_obs.Trace.t;
      (* Trace.null unless the owning machine wires a live trace in;
         emit sites guard with [Trace.enabled]. *)
}

let sid_standard = 0x0178_0000
let sid_virtualizing = 0x0179_0000
let sid_virtual_vax = 0x017A_0000

let create ?(variant = Variant.Standard) ?sid ~mmu ~clock () =
  let sid =
    match sid with
    | Some s -> s
    | None -> (
        match variant with
        | Variant.Standard -> sid_standard
        | Variant.Virtualizing -> sid_virtualizing)
  in
  {
    variant;
    mmu;
    clock;
    dcache = Decode_cache.create ();
    regs = Array.make 16 0;
    psl = Psl.initial;
    cc_lazy = 0;
    cc_value = 0;
    sp_bank = Array.make 5 0;
    vmpsl = 0;
    vmpend = 0;
    ipl_assist = false;
    scbb = 0;
    pcbb = 0;
    sisr = 0;
    sid;
    pending_interrupts = [];
    exit = create_exit_record ();
    frame = Array.make max_frame_words 0;
    agent = None;
    ipr_read_hook = (fun _ -> None);
    ipr_write_hook = (fun _ _ -> false);
    trap_observer = None;
    halted = false;
    double_fault = None;
    stop_requested = false;
    idle_hint = false;
    inject = Vax_fault.Engine.null;
    instructions = 0;
    vm_instructions = 0;
    interrupts_taken = 0;
    frame_pushes_fast = 0;
    exceptions_by_vector = Array.make (Scb.size_bytes / 4) 0;
    exceptions_elsewhere = Hashtbl.create 4;
    trace = Vax_obs.Trace.null;
  }

(* Materialize deferred condition codes.  Computes exactly what the
   eager helper would have written (classes mirror Exec's
   [set_nz_keep_c] / [set_nz_byte_keep_c]; C is exact in [psl], so
   TSTL's clear-C needs no class of its own), so calling this at every
   reader of N, Z or V makes the deferral bit-invisible.  [sync_cc] is
   the small test that inlines at every call site. *)
let materialize_cc t =
  let value = t.cc_value in
  let byte = t.cc_lazy = 2 in
  let n = if byte then value land 0x80 <> 0 else Word.to_signed value < 0 in
  let z = (if byte then value land 0xFF else value) = 0 in
  t.psl <- Psl.with_nzvc t.psl ~n ~z ~v:false ~c:(Psl.c t.psl);
  t.cc_lazy <- 0

let sync_cc t = if t.cc_lazy <> 0 then materialize_cc t

let pc t = t.regs.(15)
let set_pc t v = t.regs.(15) <- Word.mask v
let sp t = t.regs.(14)
let set_sp t v = t.regs.(14) <- Word.mask v
let reg t n = t.regs.(n)

let set_reg t n v = t.regs.(n) <- Word.mask v
let cur_mode t = Psl.cur t.psl

let stack_slot t =
  if Psl.is t.psl then 4 else Mode.to_int (Psl.cur t.psl)

let switch_stack_to t slot =
  let current = stack_slot t in
  if current <> slot then begin
    t.sp_bank.(current) <- sp t;
    set_sp t t.sp_bank.(slot)
  end

let read_sp_of t slot = if slot = stack_slot t then sp t else t.sp_bank.(slot)

let write_sp_of t slot v =
  if slot = stack_slot t then set_sp t v else t.sp_bank.(slot) <- Word.mask v

let lift = function Ok v -> v | Error f -> raise (Fault (Mm_fault f))

(* The memory accessors take the MMU's allocation-free fast half first
   and fall back to the full (Result-returning) accessor only on a TLB
   miss, fault, modify-policy action, or page-crossing access; the
   [try]/[with] is a trap-frame push, not a closure allocation.  Cycle
   charges and TLB statistics are identical on either path. *)

let read_byte t mode va =
  try
    let v = Mmu.v_read_byte_fast t.mmu ~mode va in
    if v >= 0 then v else lift (Mmu.v_read_byte t.mmu ~mode va)
  with
  | Phys_mem.Nonexistent_memory pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_nonexistent; mc_pa = pa }))
  | Vax_fault.Engine.Parity_error pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_parity; mc_pa = pa }))

let fetch_byte t va =
  try
    let pa = Mmu.try_translate t.mmu ~mode:(cur_mode t) ~write:false va in
    if pa >= 0 then Phys_mem.read_byte (Mmu.phys t.mmu) pa
    else
      let pa = lift (Mmu.translate t.mmu ~mode:(cur_mode t) ~write:false va) in
      Phys_mem.read_byte (Mmu.phys t.mmu) pa
  with
  | Phys_mem.Nonexistent_memory pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_nonexistent; mc_pa = pa }))
  | Vax_fault.Engine.Parity_error pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_parity; mc_pa = pa }))

let code_pa t va =
  let pa = Mmu.try_translate t.mmu ~mode:(cur_mode t) ~write:false va in
  if pa >= 0 then pa
  else
    try lift (Mmu.translate t.mmu ~mode:(cur_mode t) ~write:false va)
    with
    | Phys_mem.Nonexistent_memory pa ->
        raise
          (Fault (Machine_check_fault { mc_code = mc_nonexistent; mc_pa = pa }))
    | Vax_fault.Engine.Parity_error pa ->
        raise (Fault (Machine_check_fault { mc_code = mc_parity; mc_pa = pa }))

let write_byte t mode va b =
  try
    if not (Mmu.v_write_byte_fast t.mmu ~mode va b) then
      lift (Mmu.v_write_byte t.mmu ~mode va b)
  with
  | Phys_mem.Nonexistent_memory pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_nonexistent; mc_pa = pa }))
  | Vax_fault.Engine.Parity_error pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_parity; mc_pa = pa }))

let read_word16 t mode va =
  try
    let v = Mmu.v_read_word_fast t.mmu ~mode va in
    if v >= 0 then v else lift (Mmu.v_read_word t.mmu ~mode va)
  with
  | Phys_mem.Nonexistent_memory pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_nonexistent; mc_pa = pa }))
  | Vax_fault.Engine.Parity_error pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_parity; mc_pa = pa }))

let write_word16 t mode va w =
  try
    if not (Mmu.v_write_word_fast t.mmu ~mode va w) then
      lift (Mmu.v_write_word t.mmu ~mode va w)
  with
  | Phys_mem.Nonexistent_memory pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_nonexistent; mc_pa = pa }))
  | Vax_fault.Engine.Parity_error pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_parity; mc_pa = pa }))

let read_long t mode va =
  try
    let v = Mmu.v_read_long_fast t.mmu ~mode va in
    if v >= 0 then v else lift (Mmu.v_read_long t.mmu ~mode va)
  with
  | Phys_mem.Nonexistent_memory pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_nonexistent; mc_pa = pa }))
  | Vax_fault.Engine.Parity_error pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_parity; mc_pa = pa }))

let write_long t mode va w =
  try
    if not (Mmu.v_write_long_fast t.mmu ~mode va w) then
      lift (Mmu.v_write_long t.mmu ~mode va w)
  with
  | Phys_mem.Nonexistent_memory pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_nonexistent; mc_pa = pa }))
  | Vax_fault.Engine.Parity_error pa ->
      raise (Fault (Machine_check_fault { mc_code = mc_parity; mc_pa = pa }))

let push_long t w =
  let nsp = Word.sub (sp t) 4 in
  write_long t (cur_mode t) nsp w;
  set_sp t nsp

let pop_long t =
  let v = read_long t (cur_mode t) (sp t) in
  set_sp t (Word.add (sp t) 4);
  v

let post_interrupt t ~ipl ~vector =
  if not (List.exists (fun (_, v) -> v = vector) t.pending_interrupts) then
    t.pending_interrupts <- (ipl, vector) :: t.pending_interrupts

let retract_interrupt t ~vector =
  t.pending_interrupts <-
    List.filter (fun (_, v) -> v <> vector) t.pending_interrupts

let highest_software t =
  (* highest set bit of SISR, levels 1-15 *)
  if t.sisr = 0 then None
  else
    let rec scan l = if l = 0 then None else
      if t.sisr land (1 lsl l) <> 0 then Some l else scan (l - 1)
    in
    scan 15

let highest_pending t =
  if t.pending_interrupts == [] && t.sisr = 0 then None
  else
  let cur_ipl = Psl.ipl t.psl in
  let best =
    List.fold_left
      (fun acc (ipl, v) ->
        match acc with
        | Some (bi, _) when bi >= ipl -> acc
        | _ -> Some (ipl, v))
      None t.pending_interrupts
  in
  let best =
    match highest_software t with
    | Some l -> (
        match best with
        | Some (bi, _) when bi >= l -> best
        | _ -> Some (l, Scb.software_interrupt l))
    | None -> best
  in
  match best with
  | Some (ipl, _) when ipl > cur_ipl -> best
  | _ -> None

let merged_vm_psl t =
  let p = t.psl in
  let vp = t.vmpsl in
  let p = Psl.with_cur p (Psl.cur vp) in
  let p = Psl.with_prv p (Psl.prv vp) in
  let p = Psl.with_ipl p (Psl.ipl vp) in
  let p = Psl.with_is p (Psl.is vp) in
  Psl.with_vm p false

(* Exception delivery itself took a machine check (e.g. the SCB or the
   kernel stack sits on nonexistent or poisoned memory): a real VAX is
   architecturally stuck and console-halts.  We model that as a clean
   halt with the reason recorded, which [Machine.run] reports as a
   [Double_fault] outcome — never as an escaping OCaml exception. *)
let double_fault_halt t reason =
  t.double_fault <- Some reason;
  t.halted <- true;
  Vax_fault.Engine.note_double_fault t.inject

(* Vectors inside the architected SCB page count in an array slot; any
   other number (a fault plan may post an arbitrary spurious vector)
   falls back to a table. *)
let in_scb vector = vector >= 0 && vector < Scb.size_bytes && vector land 3 = 0

let count_exception t vector =
  if in_scb vector then begin
    let i = vector lsr 2 in
    t.exceptions_by_vector.(i) <- t.exceptions_by_vector.(i) + 1
  end
  else
    let n =
      Option.value ~default:0 (Hashtbl.find_opt t.exceptions_elsewhere vector)
    in
    Hashtbl.replace t.exceptions_elsewhere vector (n + 1)

let exception_count t vector =
  if in_scb vector then t.exceptions_by_vector.(vector lsr 2)
  else Option.value ~default:0 (Hashtbl.find_opt t.exceptions_elsewhere vector)

let exception_counts t =
  let acc =
    ref (Hashtbl.fold (fun v n acc -> (v, n) :: acc) t.exceptions_elsewhere [])
  in
  for i = Array.length t.exceptions_by_vector - 1 downto 0 do
    let n = t.exceptions_by_vector.(i) in
    if n > 0 then acc := (i lsl 2, n) :: !acc
  done;
  !acc
