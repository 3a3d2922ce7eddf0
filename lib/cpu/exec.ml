open Vax_arch
open Vax_mem

type status = Stepped | Machine_halted | Stopped

let check_overflow_trap st =
  if Psl.v st.State.psl && Psl.iv st.State.psl then
    raise (State.Fault (State.Arithmetic_trap 1))

(* ------------------------------------------------------------------ *)
(* Privilege / virtualization gates                                    *)

let in_vm st = st.State.variant = Variant.Virtualizing && Psl.vm st.State.psl

let vm_kernel st = in_vm st && Psl.cur st.State.vmpsl = Mode.Kernel

(* Privileged instructions: VM-emulation trap when the VM thinks it is in
   kernel mode, privileged-instruction trap otherwise (paper §4.4.1). *)
let check_privileged st d ~start_pc =
  if in_vm st then
    if vm_kernel st then Microcode.vm_emulation_trap st d ~start_pc
    else raise (State.Fault State.Privileged_instruction)
  else if State.cur_mode st <> Mode.Kernel then
    raise (State.Fault State.Privileged_instruction)

(* Sensitive instructions that always trap in a VM (CHM, REI): trap
   whenever PSL<VM> is set, regardless of mode. *)
let vm_sensitive_trap st d ~start_pc =
  if in_vm st then Microcode.vm_emulation_trap st d ~start_pc

(* ------------------------------------------------------------------ *)
(* PROBE                                                               *)

let probe_previous_mode st =
  if in_vm st then Psl.prv st.State.vmpsl else Psl.prv st.State.psl

let probe_one_byte st d ~start_pc ~mode ~write va =
  match
    (try Mmu.probe st.State.mmu ~mode ~write va
     with
     | (Phys_mem.Nonexistent_memory _ | Vax_fault.Engine.Parity_error _) as e ->
         raise (State.machine_check_of_phys e))
  with
  | Error f -> raise (State.Fault (State.Mm_fault f))
  | Ok { Mmu.accessible; pte_valid } ->
      (* Modified VAX: a PROBE that would read a not-yet-filled shadow PTE
         cannot trust its protection field; trap to the VMM instead
         (paper §4.3.2). *)
      if in_vm st && not pte_valid then
        Microcode.vm_emulation_trap st d ~start_pc
      else accessible

let exec_probe st d ~start_pc ~write ops =
  match ops with
  | [ mode_op; len_op; base_op ] ->
      let requested = Mode.of_int (Decode.read_value st mode_op land 3) in
      let probe_mode =
        Mode.least_privileged (probe_previous_mode st) requested
      in
      let len =
        let l = Decode.read_value st len_op land 0xFFFF in
        if l = 0 then 1 else l
      in
      let base =
        match base_op.Decode.loc with
        | Decode.Mem va -> va
        | Decode.Reg _ | Decode.Imm _ ->
            raise (State.Fault State.Reserved_addressing)
      in
      let first = probe_one_byte st d ~start_pc ~mode:probe_mode ~write base in
      let last =
        probe_one_byte st d ~start_pc ~mode:probe_mode ~write
          (Word.add base (len - 1))
      in
      let accessible = first && last in
      State.set_nzvc st ~n:false ~z:(not accessible) ~v:false ~c:false
  | _ -> assert false

let exec_probevm st ~write ops =
  match ops with
  | [ mode_op; base_op ] ->
      let requested = Mode.of_int (Decode.read_value st mode_op land 3) in
      (* probe mode no more privileged than executive (paper Table 2) *)
      let probe_mode = Mode.least_privileged requested Mode.Executive in
      let base =
        match base_op.Decode.loc with
        | Decode.Mem va -> va
        | Decode.Reg _ | Decode.Imm _ ->
            raise (State.Fault State.Reserved_addressing)
      in
      if not (Mmu.mapen st.State.mmu) then
        State.set_nzvc st ~n:false ~z:false ~v:false ~c:false
      else begin
        match
          (try Mmu.read_pte st.State.mmu base
           with
           | (Phys_mem.Nonexistent_memory _ | Vax_fault.Engine.Parity_error _)
             as e ->
               raise (State.machine_check_of_phys e))
        with
        | Error (Mmu.Access_violation { length_violation = true; _ }) ->
            State.set_nzvc st ~n:false ~z:true ~v:false ~c:false
        | Error f -> raise (State.Fault (State.Mm_fault f))
        | Ok (pte, _) ->
            let prot = Pte.prot pte in
            let ok =
              (if write then Protection.can_write else Protection.can_read)
                prot probe_mode
            in
            (* protection, validity, modify — in that order *)
            State.set_nzvc st ~n:false ~z:(not ok)
              ~v:(not (Pte.valid pte))
              ~c:(write && not (Pte.modify pte))
      end
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* MTPR / MFPR with the optional IPL microcode assist                  *)

let ipl_regnum = Ipr.to_int Ipr.IPL

(* The privilege gate comes after the operand reads, and the assist
   takes virtual-kernel references to IPL before it. *)
let ipl_assisted st regnum =
  vm_kernel st && st.State.ipl_assist && Word.mask regnum = ipl_regnum

let exec_mtpr st d ~start_pc ops =
  match ops with
  | [ src; regnum_op ] ->
      let value = Decode.read_value st src in
      let regnum = Decode.read_value st regnum_op in
      if ipl_assisted st regnum then begin
        (* VAX-11/730-style assist: maintain the VM's IPL in microcode,
           trapping only when the new level would make a pending virtual
           interrupt deliverable (paper §7.3). *)
        let new_ipl = value land 31 in
        if new_ipl < st.State.vmpend then
          Microcode.vm_emulation_trap st d ~start_pc
        else st.State.vmpsl <- Psl.with_ipl st.State.vmpsl new_ipl
      end
      else begin
        check_privileged st d ~start_pc;
        Microcode.mtpr st ~value ~regnum
      end
  | _ -> assert false

let exec_mfpr st d ~start_pc ops =
  match ops with
  | [ regnum_op; dst ] ->
      let regnum = Decode.read_value st regnum_op in
      if ipl_assisted st regnum then
        Decode.write_value st dst (Psl.ipl st.State.vmpsl)
      else begin
        check_privileged st d ~start_pc;
        Decode.write_value st dst (Microcode.mfpr st ~regnum)
      end
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* The big dispatch                                                    *)

let branch_to st op =
  match op.Decode.branch_target with
  | Some t -> State.set_pc st t
  | None -> assert false

(* Whether a branch is taken, on a materialized PSL: the one definition
   the generic handler and the fast tier both read. *)
let branch_taken op p =
  match op with
  | Opcode.Brb | Opcode.Brw -> true
  | Opcode.Bneq -> not (Psl.z p)
  | Opcode.Beql -> Psl.z p
  | Opcode.Bgtr -> not (Psl.n p || Psl.z p)
  | Opcode.Bleq -> Psl.n p || Psl.z p
  | Opcode.Bgeq -> not (Psl.n p)
  | Opcode.Blss -> Psl.n p
  | Opcode.Bgtru -> not (Psl.c p || Psl.z p)
  | Opcode.Blequ -> Psl.c p || Psl.z p
  | Opcode.Bvc -> not (Psl.v p)
  | Opcode.Bvs -> Psl.v p
  | Opcode.Bcc -> not (Psl.c p)
  | Opcode.Bcs -> Psl.c p
  | _ -> invalid_arg "Exec.branch_taken"

(* A conditional branch reads N, Z, V or C, so it materializes any
   deferred codes (see [State.cc_lazy]) first. *)
let cond_branch st d =
  match d.Decode.operands with
  | [ op ] ->
      State.sync_cc st;
      if branch_taken d.Decode.opcode st.State.psl then branch_to st op
      else State.set_pc st d.Decode.next_pc
  | _ -> assert false

(* Per-opcode handlers: the big dispatch resolved once per opcode rather
   than per executed instruction.  A handler returns [true] when the
   instruction set the PC itself.  [execute] still pays the dispatch on
   every step; block slots resolve it at build time and then reuse the
   handler for the life of the block. *)

type handler = State.t -> Decode.decoded -> start_pc:Word.t -> bool

(* operand-count mismatch: impossible for decoded instructions *)
let bad_operands () = assert false

(* A data instruction's sources (see {!Semantics}); a Write operand is
   not one *)
let source st (o : Decode.operand) =
  match (o.Decode.access, o.Decode.loc) with
  | Opcode.Write, _ -> 0
  | Opcode.Address, Decode.Mem va -> va
  | Opcode.Address, (Decode.Reg _ | Decode.Imm _) ->
      raise (State.Fault State.Reserved_addressing)
  | _ -> Decode.read_value st o

(* ... and its destination, then a move's deferred codes *)
let store st (e : Semantics.t) (o : Decode.operand) r =
  (if e.Semantics.push then State.push_long st r
   else
     match o.Decode.access with
     | Opcode.Write | Opcode.Modify -> Decode.write_value st o r
     | _ -> ());
  if e.Semantics.after <> 0 then State.defer_cc st e.Semantics.after r

(* The one handler of every data opcode: read the sources, compute,
   write the destination, take the overflow trap. *)
let exec_data st (d : Decode.decoded) ~start_pc:_ =
  let e =
    match Semantics.find d.Decode.opcode with
    | Some e -> e
    | None -> assert false (* [handler_of] routes only data opcodes here *)
  in
  (match d.Decode.operands with
  | [ x ] -> store st e x (e.Semantics.compute st (source st x) 0)
  | [ x; y ] ->
      let a = source st x in
      store st e y (e.Semantics.compute st a (source st y))
  | [ x; y; z ] ->
      let a = source st x in
      store st e z (e.Semantics.compute st a (source st y))
  | _ -> bad_operands ());
  if e.Semantics.overflow then check_overflow_trap st;
  false

(* every other opcode, before its sensitivity gate (see [other_handler]) *)
let ungated_handler : Opcode.t -> handler = function
  | Opcode.Nop -> (fun _st _d ~start_pc:_ -> false)
  | Opcode.Halt ->
      (fun st _d ~start_pc:_ ->
        st.State.halted <- true;
        true (* leave PC at the HALT *))
  | Opcode.Bpt -> (fun _st _d ~start_pc:_ -> raise (State.Fault State.Breakpoint_fault))
  | Opcode.Rei ->
      (fun st _d ~start_pc:_ ->
        Microcode.rei st;
        true)
  | Opcode.Ldpctx ->
      (fun st _d ~start_pc:_ ->
        Microcode.ldpctx st;
        false)
  | Opcode.Svpctx ->
      (fun st _d ~start_pc:_ ->
        Microcode.svpctx st;
        false)
  | Opcode.Wait ->
      (* Not implemented by real processors, modified or not (Table 4:
         "no change"); the VMM catches the VM-emulation trap and
         deschedules the VM.  Bare kernels must not use it. *)
      (fun _st _d ~start_pc:_ ->
        raise (State.Fault State.Privileged_instruction))
  | Opcode.Chmk | Opcode.Chme | Opcode.Chms | Opcode.Chmu ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ code_op ] ->
            let target = Option.get (Opcode.chm_target d.Decode.opcode) in
            let code = Decode.read_value st code_op in
            Microcode.chm st ~target ~code ~next_pc:d.Decode.next_pc;
            true
        | _ -> bad_operands ())
  | Opcode.Prober ->
      (* traps in a VM only on an invalid PTE: see [probe_one_byte] *)
      (fun st d ~start_pc ->
        exec_probe st d ~start_pc ~write:false d.Decode.operands;
        false)
  | Opcode.Probew ->
      (fun st d ~start_pc ->
        exec_probe st d ~start_pc ~write:true d.Decode.operands;
        false)
  | Opcode.Probevmr ->
      (fun st d ~start_pc:_ ->
        exec_probevm st ~write:false d.Decode.operands;
        false)
  | Opcode.Probevmw ->
      (fun st d ~start_pc:_ ->
        exec_probevm st ~write:true d.Decode.operands;
        false)
  | Opcode.Movpsl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ dst ] ->
            Decode.write_value st dst (Microcode.movpsl_value st);
            false
        | _ -> bad_operands ())
  | Opcode.Mtpr ->
      (fun st d ~start_pc ->
        exec_mtpr st d ~start_pc d.Decode.operands;
        false)
  | Opcode.Mfpr ->
      (fun st d ~start_pc ->
        exec_mfpr st d ~start_pc d.Decode.operands;
        false)
  | Opcode.Bispsw ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src ] ->
            let v = Decode.read_value st src in
            if v land 0xFF00 <> 0 then raise (State.Fault State.Reserved_operand);
            State.sync_cc st;
            st.State.psl <- Word.logor st.State.psl (v land 0xFF);
            false
        | _ -> bad_operands ())
  | Opcode.Bicpsw ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src ] ->
            let v = Decode.read_value st src in
            if v land 0xFF00 <> 0 then raise (State.Fault State.Reserved_operand);
            State.sync_cc st;
            st.State.psl <- Word.logand st.State.psl (Word.lognot (v land 0xFF));
            false
        | _ -> bad_operands ())
  | Opcode.Brb | Opcode.Brw | Opcode.Bneq | Opcode.Beql | Opcode.Bgtr
  | Opcode.Bleq | Opcode.Bgeq | Opcode.Blss | Opcode.Bgtru | Opcode.Blequ
  | Opcode.Bvc | Opcode.Bvs | Opcode.Bcc | Opcode.Bcs ->
      (fun st d ~start_pc:_ ->
        cond_branch st d;
        true)
  | Opcode.Blbs ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; disp ] ->
            if Decode.read_value st src land 1 = 1 then branch_to st disp
            else State.set_pc st d.Decode.next_pc;
            true
        | _ -> bad_operands ())
  | Opcode.Blbc ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; disp ] ->
            if Decode.read_value st src land 1 = 0 then branch_to st disp
            else State.set_pc st d.Decode.next_pc;
            true
        | _ -> bad_operands ())
  | Opcode.Aoblss ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ limit; index; disp ] ->
            let r = Semantics.add st (Decode.read_value st index) 1 in
            Decode.write_value st index r;
            if Word.signed_lt r (Decode.read_value st limit) then
              branch_to st disp
            else State.set_pc st d.Decode.next_pc;
            true
        | _ -> bad_operands ())
  | Opcode.Sobgtr ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ index; disp ] ->
            let r = Semantics.sub st (Decode.read_value st index) 1 in
            Decode.write_value st index r;
            if Word.to_signed r > 0 then branch_to st disp
            else State.set_pc st d.Decode.next_pc;
            true
        | _ -> bad_operands ())
  | Opcode.Bsbb ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ disp ] ->
            State.push_long st d.Decode.next_pc;
            branch_to st disp;
            true
        | _ -> bad_operands ())
  | Opcode.Jsb ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ dst ] -> (
            match dst.Decode.loc with
            | Decode.Mem va ->
                State.push_long st d.Decode.next_pc;
                State.set_pc st va;
                true
            | Decode.Reg _ | Decode.Imm _ ->
                raise (State.Fault State.Reserved_addressing))
        | _ -> bad_operands ())
  | Opcode.Rsb ->
      (fun st _d ~start_pc:_ ->
        State.set_pc st (State.pop_long st);
        true)
  | Opcode.Jmp ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ dst ] -> (
            match dst.Decode.loc with
            | Decode.Mem va ->
                State.set_pc st va;
                true
            | Decode.Reg _ | Decode.Imm _ ->
                raise (State.Fault State.Reserved_addressing))
        | _ -> bad_operands ())
  | Opcode.Calls ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ narg; dst ] -> (
            match dst.Decode.loc with
            | Decode.Mem va ->
                let n = Decode.read_value st narg in
                State.push_long st n;
                let arg_base = State.sp st in
                State.push_long st d.Decode.next_pc;
                State.push_long st (State.reg st 13) (* FP *);
                State.push_long st (State.reg st 12) (* AP *);
                State.set_reg st 13 (State.sp st);
                State.set_reg st 12 arg_base;
                State.set_pc st va;
                true
            | Decode.Reg _ | Decode.Imm _ ->
                raise (State.Fault State.Reserved_addressing))
        | _ -> bad_operands ())
  | Opcode.Ret ->
      (fun st _d ~start_pc:_ ->
        State.set_sp st (State.reg st 13);
        State.set_reg st 12 (State.pop_long st);
        State.set_reg st 13 (State.pop_long st);
        let ret_pc = State.pop_long st in
        let n = State.pop_long st in
        State.set_sp st (Word.add (State.sp st) (4 * (n land 0xFF)));
        State.set_pc st ret_pc;
        true)
  | _ -> invalid_arg "Exec.ungated_handler"

(* The gate each opcode's sensitivity picks, applied before the handler
   runs.  MTPR and MFPR apply theirs inside [exec_mtpr]/[exec_mfpr],
   after the operand reads, where the IPL assist decides. *)
let other_handler op : handler =
  let h = ungated_handler op in
  match Opcode.sensitivity op with
  | Opcode.Privileged when op <> Opcode.Mtpr && op <> Opcode.Mfpr ->
      fun st d ~start_pc ->
        check_privileged st d ~start_pc;
        h st d ~start_pc
  | Opcode.Traps_in_vm ->
      fun st d ~start_pc ->
        vm_sensitive_trap st d ~start_pc;
        h st d ~start_pc
  | Opcode.Innocuous | Opcode.Privileged | Opcode.Composed_in_vm
  | Opcode.Traps_on_condition ->
      h

(* every opcode's gated handler, resolved once *)
let handlers =
  let t = Array.make Opcode.index_count exec_data in
  List.iter
    (fun op ->
      if Option.is_none (Semantics.find op) then
        t.(Opcode.index op) <- other_handler op)
    Opcode.all;
  t

let handler_of op = handlers.(Opcode.index op)

let execute st (d : Decode.decoded) ~start_pc =
  (handler_of d.Decode.opcode) st d ~start_pc

(* ------------------------------------------------------------------ *)
(* Step                                                                *)

(* The post-decode half of a step, shared verbatim between the per-step
   loop and the block engine's cold path so the two engines agree on
   counter/charge/retire order by construction. *)
let run_decoded st (d : Decode.decoded) ~start_pc =
  st.State.instructions <- st.State.instructions + 1;
  let was_vm = Psl.vm st.State.psl in
  if was_vm then st.State.vm_instructions <- st.State.vm_instructions + 1;
  Cycles.charge st.State.clock (Opcode.base_cycles d.Decode.opcode);
  let pc_set = execute st d ~start_pc in
  if not pc_set then State.set_pc st d.Decode.next_pc;
  (* retire: the instruction completed without faulting *)
  let tr = st.State.trace in
  if Vax_obs.Trace.enabled tr then
    Vax_obs.Trace.emit tr Vax_obs.Trace.Retire ~b:(Opcode.code d.Decode.opcode)
      ~c:(if was_vm then 1 else 0)
      start_pc;
  (* the stepper is the eager reference: an exact PSL at every
     instruction boundary *)
  State.sync_cc st

(* [d] is [Decode.undecoded] when the fault came before decode
   finished. *)
let fault_finish st (d : Decode.decoded) ~start_pc f =
  let decoded = d != Decode.undecoded in
  let next_pc = if decoded then d.Decode.next_pc else start_pc in
  (* fault-style exceptions back out operand side effects; trap-style
     (arithmetic) leave them applied *)
  (match f with
  | State.Arithmetic_trap _ -> ()
  | _ -> if decoded then Decode.undo_side_effects st d);
  Microcode.dispatch_fault st ~start_pc ~next_pc f

(* Physical address of a page-straddling instruction's first byte on its
   second page, when the TLB can resolve it without charging anything
   ([try_translate] is free on a hit and refuses on a miss).  [None]
   leaves the instruction uncacheable, exactly as before. *)
let straddle_pa2 st start_pc (tmpl : Decode_cache.template) pa =
  if Addr.offset pa + tmpl.Decode_cache.t_len > Addr.page_size then begin
    let second_va = Word.add start_pc (Addr.page_size - Addr.offset pa) in
    let pa2 =
      Mmu.try_translate st.State.mmu ~mode:(State.cur_mode st) ~write:false
        second_va
    in
    if pa2 >= 0 then Some pa2 else None
  end
  else None

let step st =
  if st.State.halted then Machine_halted
  else if st.State.stop_requested then Stopped
  else begin
    (match State.highest_pending st with
    | Some (ipl, vector) -> Microcode.take_interrupt st ~ipl ~vector
    | None -> (
        let start_pc = State.pc st in
        let decoded = ref Decode.undecoded in
        try
          let d =
            (* consult the decode cache by physical PC; the lookup
               translation reproduces the fault/cycle behaviour of an
               uncached first-byte fetch *)
            let pa = State.code_pa st start_pc in
            match Decode_cache.find st.State.dcache ~mmu:st.State.mmu pa with
            | tmpl -> Decode.operandize st tmpl ~start_pc
            | exception Not_found ->
                let d = Decode.decode st in
                Decode_cache.store st.State.dcache ~mmu:st.State.mmu
                  ?pa2:(straddle_pa2 st start_pc d.Decode.tmpl pa)
                  pa d.Decode.tmpl;
                d
          in
          decoded := d;
          run_decoded st d ~start_pc
        with State.Fault f -> fault_finish st !decoded ~start_pc f));
    if st.State.halted then Machine_halted
    else if st.State.stop_requested then Stopped
    else Stepped
  end

let run st ?(max_instructions = max_int) () =
  let rec loop n =
    if n <= 0 then Stepped
    else
      match step st with
      | Stepped -> loop (n - 1)
      | (Machine_halted | Stopped) as s -> s
  in
  loop max_instructions

(* ================================================================== *)
(* Superblock engine                                                   *)
(*                                                                     *)
(* A block slot's closure replays one instruction exactly as [step]     *)
(* would after the decode-cache probe: same operand-specifier charges   *)
(* in the same order, same eval-time memory reads, same counter bumps,  *)
(* same base-cycle charge, same fault next-PC protocol.  Two tiers:    *)
(* data instructions without operand side effects and the hot control  *)
(* transfers get a fused closure with no decoded-record allocation at  *)
(* all; everything else gets a generic slot that calls                 *)
(* [Decode.operandize] with the handler pre-resolved.                  *)
(* ================================================================== *)

(* Fast operand IR: the side-effect-free addressing shapes.  Evaluating
   one never changes a register, so faults need no undo and addresses
   can be recomputed at write time. *)
type faddr =
  | A_reg of int  (* (Rn) *)
  | A_disp of int * Word.t  (* disp(Rn) *)
  | A_pc of Word.t  (* start_pc + fixed offset (PC-relative forms) *)
  | A_abs of Word.t

type fop = F_imm of Word.t | F_reg of int | F_mem of faddr

(* branch displacements get the fused target offset instead *)
type farg = FA of fop | FB of Word.t | FX

let fop_of_shape (ts : Decode_cache.tspec) =
  match ts.Decode_cache.t_shape with
  | Decode_cache.Sh_literal v -> Some (F_imm v)
  | Decode_cache.Sh_register rn -> Some (F_reg rn)
  | Decode_cache.Sh_reg_deferred rn ->
      Some (F_mem (if rn = 15 then A_pc ts.Decode_cache.t_after else A_reg rn))
  | Decode_cache.Sh_disp { rn; disp; deferred = false } ->
      Some
        (F_mem
           (if rn = 15 then A_pc (Word.add disp ts.Decode_cache.t_after)
            else A_disp (rn, disp)))
  | Decode_cache.Sh_absolute va -> Some (F_mem (A_abs va))
  | Decode_cache.Sh_autodec _ | Decode_cache.Sh_autoinc _
  | Decode_cache.Sh_autoinc_deferred _
  | Decode_cache.Sh_disp { deferred = true; _ }
  | Decode_cache.Sh_branch _ ->
      None

let farg_of_spec (ts : Decode_cache.tspec) =
  match ts.Decode_cache.t_shape with
  | Decode_cache.Sh_branch disp ->
      FB (Word.add disp ts.Decode_cache.t_after)
  | _ -> ( match fop_of_shape ts with Some f -> FA f | None -> FX)

(* ------------------------------------------------------------------ *)
(* Fast tier.

   The generic slot pays per-execution overheads that add up to more
   than the useful work of a register-to-register instruction: a
   decoded-record allocation in [Decode.operandize], a [ref] plus a try
   frame for the fault next-PC protocol, the handler's operand-list
   match, and one [Cycles.charge] call per specifier.  The fast tier
   runs the same semantics without them, for every data instruction
   whose operands have no side effects (one closure per operand class,
   executing the opcode's {!Semantics} entry) and for the hot control
   transfers:

   - adjacent cycle charges with no possible fault point between them
     are merged into a single [Cycles.charge].  Merging is
     cycle-identical: faults are the only mid-instruction observers of
     the clock (interrupts are sampled at instruction boundaries only),
     and register/immediate operands cannot fault;
   - instead of one ref-tracked handler around the whole body, each
     faultable phase gets its own [match ... with exception] with the
     next-PC of that phase baked in: operand evaluation reports
     [next_pc = start_pc], everything after evaluation committed (the
     destination write, a division trap, the overflow trap) reports the
     instruction's end;
   - operand access is pre-resolved at compile time to a direct
     register index or a single address closure.

   A fault raised by [dispatch_fault] itself propagates, as in
   [step].  Every other shape returns [None] and takes [generic_slot],
   the stepper's own semantics. *)

let commit st =
  st.State.instructions <- st.State.instructions + 1;
  let was_vm = Psl.vm st.State.psl in
  if was_vm then st.State.vm_instructions <- st.State.vm_instructions + 1;
  was_vm

let retire st enc pc was_vm =
  let tr = st.State.trace in
  if Vax_obs.Trace.enabled tr then
    Vax_obs.Trace.emit tr Vax_obs.Trace.Retire ~b:enc
      ~c:(if was_vm then 1 else 0)
      pc

(* an operand-evaluation fault, and a post-commit one *)
let fault0 st pc f = Microcode.dispatch_fault st ~start_pc:pc ~next_pc:pc f

let fault1 st pc len f =
  Microcode.dispatch_fault st ~start_pc:pc ~next_pc:(Word.add pc len) f

(* pre-resolved address and memory-access closures *)
let va_of = function
  | A_reg rn -> fun st _ -> Array.unsafe_get st.State.regs rn
  | A_disp (rn, disp) ->
      fun st _ -> Word.add (Array.unsafe_get st.State.regs rn) disp
  | A_pc ofs -> fun _ pc -> Word.add pc ofs
  | A_abs va -> fun _ _ -> va

let rd_mem width a =
  match (width, a) with
  | Opcode.Long, A_reg rn ->
      fun st _ ->
        State.read_long st (State.cur_mode st) (Array.unsafe_get st.State.regs rn)
  | Opcode.Long, A_disp (rn, disp) ->
      fun st _ ->
        State.read_long st (State.cur_mode st)
          (Word.add (Array.unsafe_get st.State.regs rn) disp)
  | Opcode.Long, A_pc ofs ->
      fun st pc -> State.read_long st (State.cur_mode st) (Word.add pc ofs)
  | Opcode.Long, A_abs va ->
      fun st _ -> State.read_long st (State.cur_mode st) va
  | Opcode.Word, _ ->
      let va = va_of a in
      fun st pc -> State.read_word16 st (State.cur_mode st) (va st pc)
  | Opcode.Byte, _ ->
      let va = va_of a in
      fun st pc -> State.read_byte st (State.cur_mode st) (va st pc)

let wr_mem width a =
  let va = va_of a in
  match width with
  | Opcode.Long ->
      fun st pc v -> State.write_long st (State.cur_mode st) (va st pc) v
  | Opcode.Word ->
      fun st pc v ->
        State.write_word16 st (State.cur_mode st) (va st pc) (v land 0xFFFF)
  | Opcode.Byte ->
      fun st pc v ->
        State.write_byte st (State.cur_mode st) (va st pc) (v land 0xFF)

let no_source _ _ = 0

(* A data instruction, by operand class.  The specifiers are walked in
   order: each source gets a reader and the specifier charge still
   pending when it is read — nonzero only for a memory read, the one
   kind of source that can fault, so pure specifiers merge into the
   next charge.  A longword register destination (or none) is stored
   inline by the register-class closures, which keep the commit and
   retire bookkeeping inline too: at this size a helper-call chain
   costs more than the useful work.  Any other destination — memory, a
   byte or word register merge, PUSHL's push — gets a writer closure. *)
let compile_data (e : Semantics.t) (tmpl : Decode_cache.template) =
  let len = tmpl.Decode_cache.t_len in
  let enc = Opcode.code tmpl.Decode_cache.t_opcode in
  let spec = Cost.operand_specifier in
  let base = Opcode.base_cycles tmpl.Decode_cache.t_opcode in
  let rec walk pending srcs dst = function
    | [] -> Some (List.rev srcs, dst, pending + base)
    | (ts : Decode_cache.tspec) :: rest -> (
        let pending = pending + spec in
        let access = ts.Decode_cache.t_access in
        let w = ts.Decode_cache.t_width in
        match (access, fop_of_shape ts) with
        | Opcode.Write, Some f -> walk pending srcs (Some (f, w)) rest
        | Opcode.Address, Some (F_mem a) ->
            walk pending ((0, va_of a) :: srcs) dst rest
        | (Opcode.Read | Opcode.Modify), Some f -> (
            let dst = if access = Opcode.Modify then Some (f, w) else dst in
            match f with
            | F_imm v -> walk pending ((0, fun _ _ -> v) :: srcs) dst rest
            | F_reg rn ->
                walk pending
                  ((0, fun st _ -> Array.unsafe_get st.State.regs rn) :: srcs)
                  dst rest
            | F_mem a -> walk 0 ((pending, rd_mem w a) :: srcs) dst rest)
        | _ -> None)
  in
  let classes =
    match walk 0 [] None tmpl.Decode_cache.t_specs with
    | Some ([], dst, tail) ->
        Some ((0, no_source), (0, no_source), false, dst, tail)
    | Some ([ a ], dst, tail) -> Some (a, (0, no_source), false, dst, tail)
    | Some ([ a; b ], dst, tail) -> Some (a, b, true, dst, tail)
    | _ -> None
  in
  match classes with
  | None -> None
  | Some ((ka, ra), (kb, rb), two, dst, tail) -> (
      let { Semantics.compute; after; overflow; push } = e in
      let writer =
        match dst with
        | _ when push -> Some (fun st _ r -> State.push_long st r)
        | None | Some (F_reg _, Opcode.Long) -> None
        | Some (F_reg rn, w) ->
            let low = if w = Opcode.Byte then 0xFF else 0xFFFF in
            Some
              (fun st _ r ->
                let regs = st.State.regs in
                Array.unsafe_set regs rn
                  (Array.unsafe_get regs rn land lnot low lor (r land low)))
        | Some (F_mem a, w) -> Some (wr_mem w a)
        | Some (F_imm _, _) -> assert false (* the decoder rejects it *)
      in
      let dr = match dst with Some (F_reg rn, Opcode.Long) -> rn | _ -> -1 in
      match writer with
      | None when ka = 0 && kb = 0 ->
          (* register/immediate/address sources, register or no
             destination: no evaluation fault point at all *)
          Some
            (fun st pc ->
              Cycles.charge st.State.clock tail;
              st.State.instructions <- st.State.instructions + 1;
              let was_vm = Psl.vm st.State.psl in
              if was_vm then
                st.State.vm_instructions <- st.State.vm_instructions + 1;
              let a = ra st pc in
              let b = if two then rb st pc else 0 in
              match compute st a b with
              | exception State.Fault f -> fault1 st pc len f
              | r ->
                  if dr >= 0 then Array.unsafe_set st.State.regs dr (Word.mask r);
                  if after <> 0 then State.defer_cc st after r;
                  if overflow && Psl.v st.State.psl && Psl.iv st.State.psl then
                    fault1 st pc len (State.Arithmetic_trap 1)
                  else begin
                    State.set_pc st (Word.add pc len);
                    let tr = st.State.trace in
                    if Vax_obs.Trace.enabled tr then
                      Vax_obs.Trace.emit tr Vax_obs.Trace.Retire ~b:enc
                        ~c:(if was_vm then 1 else 0)
                        pc
                  end)
      | None ->
          (* memory sources, register or no destination *)
          Some
            (fun st pc ->
              Cycles.charge st.State.clock ka;
              match ra st pc with
              | exception State.Fault f -> fault0 st pc f
              | a -> (
                  Cycles.charge st.State.clock kb;
                  match if two then rb st pc else 0 with
                  | exception State.Fault f -> fault0 st pc f
                  | b -> (
                      Cycles.charge st.State.clock tail;
                      st.State.instructions <- st.State.instructions + 1;
                      let was_vm = Psl.vm st.State.psl in
                      if was_vm then
                        st.State.vm_instructions <- st.State.vm_instructions + 1;
                      match compute st a b with
                      | exception State.Fault f -> fault1 st pc len f
                      | r ->
                          if dr >= 0 then
                            Array.unsafe_set st.State.regs dr (Word.mask r);
                          if after <> 0 then State.defer_cc st after r;
                          if overflow && Psl.v st.State.psl && Psl.iv st.State.psl
                          then fault1 st pc len (State.Arithmetic_trap 1)
                          else begin
                            State.set_pc st (Word.add pc len);
                            let tr = st.State.trace in
                            if Vax_obs.Trace.enabled tr then
                              Vax_obs.Trace.emit tr Vax_obs.Trace.Retire ~b:enc
                                ~c:(if was_vm then 1 else 0)
                                pc
                          end)))
      | Some wr ->
          (* any sources, a written destination; with pure sources
             [ka] and [kb] are 0 and the evaluation cannot fault *)
          Some
            (fun st pc ->
              Cycles.charge st.State.clock ka;
              match ra st pc with
              | exception State.Fault f -> fault0 st pc f
              | a -> (
                  Cycles.charge st.State.clock kb;
                  match if two then rb st pc else 0 with
                  | exception State.Fault f -> fault0 st pc f
                  | b -> (
                      Cycles.charge st.State.clock tail;
                      let was_vm = commit st in
                      match
                        let r = compute st a b in
                        wr st pc r;
                        r
                      with
                      | exception State.Fault f -> fault1 st pc len f
                      | r ->
                          if after <> 0 then State.defer_cc st after r;
                          if overflow && Psl.v st.State.psl && Psl.iv st.State.psl
                          then fault1 st pc len (State.Arithmetic_trap 1)
                          else begin
                            State.set_pc st (Word.add pc len);
                            retire st enc pc was_vm
                          end))))

let compile_fast_hot (tmpl : Decode_cache.template) =
  let op = tmpl.Decode_cache.t_opcode in
  match Semantics.find op with
  | Some e -> compile_data e tmpl
  | None -> (
      let len = tmpl.Decode_cache.t_len in
      let base = Opcode.base_cycles op in
      let enc = Opcode.code op in
      let spec = Cost.operand_specifier in
      match (op, List.map farg_of_spec tmpl.Decode_cache.t_specs) with
      | Opcode.Nop, [] ->
          Some
            (fun st pc ->
              Cycles.charge st.State.clock base;
              let was_vm = commit st in
              State.set_pc st (Word.add pc len);
              retire st enc pc was_vm)
      | ( ( Opcode.Brb | Opcode.Brw | Opcode.Bneq | Opcode.Beql | Opcode.Bgtr
          | Opcode.Bleq | Opcode.Bgeq | Opcode.Blss | Opcode.Bgtru
          | Opcode.Blequ | Opcode.Bvc | Opcode.Bvs | Opcode.Bcc | Opcode.Bcs ),
          [ FB tofs ] ) ->
          (* conditional branch: one specifier, nothing can fault; reads
             the codes, so it materializes any deferred ones first *)
          let call = spec + base in
          Some
            (fun st pc ->
              Cycles.charge st.State.clock call;
              st.State.instructions <- st.State.instructions + 1;
              let was_vm = Psl.vm st.State.psl in
              if was_vm then
                st.State.vm_instructions <- st.State.vm_instructions + 1;
              State.sync_cc st;
              if branch_taken op st.State.psl then
                State.set_pc st (Word.add pc tofs)
              else State.set_pc st (Word.add pc len);
              let tr = st.State.trace in
              if Vax_obs.Trace.enabled tr then
                Vax_obs.Trace.emit tr Vax_obs.Trace.Retire ~b:enc
                  ~c:(if was_vm then 1 else 0)
                  pc)
      | Opcode.Sobgtr, [ FA (F_reg rn); FB tofs ] ->
          let call = (2 * spec) + base in
          Some
            (fun st pc ->
              Cycles.charge st.State.clock call;
              st.State.instructions <- st.State.instructions + 1;
              let was_vm = Psl.vm st.State.psl in
              if was_vm then
                st.State.vm_instructions <- st.State.vm_instructions + 1;
              let r = Semantics.sub st (Array.unsafe_get st.State.regs rn) 1 in
              Array.unsafe_set st.State.regs rn r;
              if Word.to_signed r > 0 then State.set_pc st (Word.add pc tofs)
              else State.set_pc st (Word.add pc len);
              let tr = st.State.trace in
              if Vax_obs.Trace.enabled tr then
                Vax_obs.Trace.emit tr Vax_obs.Trace.Retire ~b:enc
                  ~c:(if was_vm then 1 else 0)
                  pc)
      | Opcode.Bsbb, [ FB tofs ] ->
          let call = spec + base in
          Some
            (fun st pc ->
              Cycles.charge st.State.clock call;
              let was_vm = commit st in
              match State.push_long st (Word.add pc len) with
              | exception State.Fault f -> fault1 st pc len f
              | () ->
                  State.set_pc st (Word.add pc tofs);
                  retire st enc pc was_vm)
      | Opcode.Jsb, [ FA (F_mem a) ] ->
          let va = va_of a in
          let call = spec + base in
          Some
            (fun st pc ->
              Cycles.charge st.State.clock call;
              let was_vm = commit st in
              let target = va st pc in
              match State.push_long st (Word.add pc len) with
              | exception State.Fault f -> fault1 st pc len f
              | () ->
                  State.set_pc st target;
                  retire st enc pc was_vm)
      | Opcode.Jmp, [ FA (F_mem a) ] ->
          let va = va_of a in
          let call = spec + base in
          Some
            (fun st pc ->
              Cycles.charge st.State.clock call;
              let was_vm = commit st in
              State.set_pc st (va st pc);
              retire st enc pc was_vm)
      | Opcode.Rsb, [] ->
          Some
            (fun st pc ->
              Cycles.charge st.State.clock base;
              let was_vm = commit st in
              match State.pop_long st with
              | exception State.Fault f -> fault1 st pc len f
              | v ->
                  State.set_pc st v;
                  retire st enc pc was_vm)
      | _ -> None)

(* Generic slot: [Decode.operandize] against the cached template with the
   handler and constants pre-resolved — the body of [step] after its
   decode-cache probe, verbatim. *)
let generic_slot (tmpl : Decode_cache.template) =
  let h = handler_of tmpl.Decode_cache.t_opcode in
  let base = Opcode.base_cycles tmpl.Decode_cache.t_opcode in
  let enc = Opcode.code tmpl.Decode_cache.t_opcode in
  fun st start_pc ->
    let decoded = ref Decode.undecoded in
    try
      let d = Decode.operandize st tmpl ~start_pc in
      decoded := d;
      st.State.instructions <- st.State.instructions + 1;
      let was_vm = Psl.vm st.State.psl in
      if was_vm then st.State.vm_instructions <- st.State.vm_instructions + 1;
      Cycles.charge st.State.clock base;
      let pc_set = h st d ~start_pc in
      if not pc_set then State.set_pc st d.Decode.next_pc;
      let tr = st.State.trace in
      if Vax_obs.Trace.enabled tr then
        Vax_obs.Trace.emit tr Vax_obs.Trace.Retire ~b:enc
          ~c:(if was_vm then 1 else 0)
          start_pc
    with State.Fault f -> fault_finish st !decoded ~start_pc f

(* Block enders: everything that sets the PC ends a block (and is its
   last slot). *)
let is_pc_setter = function
  | Opcode.Brb | Opcode.Brw | Opcode.Bneq | Opcode.Beql | Opcode.Bgtr
  | Opcode.Bleq | Opcode.Bgeq | Opcode.Blss | Opcode.Bgtru | Opcode.Blequ
  | Opcode.Bvc | Opcode.Bvs | Opcode.Bcc | Opcode.Bcs | Opcode.Blbs
  | Opcode.Blbc | Opcode.Aoblss | Opcode.Sobgtr | Opcode.Bsbb | Opcode.Jsb
  | Opcode.Jmp | Opcode.Rsb | Opcode.Calls | Opcode.Ret ->
      true
  | _ -> false

(* Instructions that may trap in a VM never enter a block at all: they
   always execute on the cold path, so the VM-emulation and privilege
   machinery sees exactly the per-step environment.  MOVPSL, composed in
   place, may; BPT, which always faults, may not. *)
let is_block_excluded op =
  op = Opcode.Bpt
  ||
  match Opcode.sensitivity op with
  | Opcode.Privileged | Opcode.Traps_in_vm | Opcode.Traps_on_condition -> true
  | Opcode.Innocuous | Opcode.Composed_in_vm -> false

let finish_builder st (bc : Block_cache.t) =
  let pa = bc.Block_cache.bld_pa in
  let n = Block_cache.bld_finish bc in
  if n > 0 && Vax_obs.Trace.enabled st.State.trace then
    Vax_obs.Trace.emit st.State.trace Vax_obs.Trace.Block_build ~b:n pa

(* The fast tier when it has a body for the shape, the generic slot
   otherwise. *)
let compile_slot tmpl =
  match compile_fast_hot tmpl with None -> generic_slot tmpl | Some exec -> exec

(* Feed one cold-path instruction to the block builder.  Called before
   the instruction executes: the slot is a compilation of the bytes at
   [pa], valid whatever the instruction then does at run time.  Must not
   raise.

   Page straddlers are never cached: their tail bytes live at a
   translation-dependent physical address, and excluding them is what
   makes blocks pure physical-address objects — a block's slots all sit
   on the page of [b_pa], guarded by that page's store generation alone,
   and the block survives translation changes (every instruction that
   can change translations is itself block-excluded). *)
let feed_builder st (bc : Block_cache.t) pa (tmpl : Decode_cache.template) =
  let open Block_cache in
  let phys = Mmu.phys st.State.mmu in
  (* a control-flow discontinuity ends the pending prefix (it is still a
     valid block of what it covers) *)
  if bld_active bc && bc.bld_next_pa <> pa then finish_builder st bc;
  let len = tmpl.Decode_cache.t_len in
  let op = tmpl.Decode_cache.t_opcode in
  if
    len = 0
    || (not (Phys_mem.in_ram phys pa))
    || is_block_excluded op
    || Addr.offset pa + len > Addr.page_size
  then finish_builder st bc
  else begin
    if not (bld_active bc) then bld_begin bc ~pa;
    bld_append bc
      {
        s_pa = pa;
        s_len = len;
        s_gen1 = Phys_mem.page_gen phys (pa lsr Addr.page_shift);
        s_exec = compile_slot tmpl;
      };
    if is_pc_setter op || Addr.offset pa + len >= Addr.page_size || bld_full bc
    then finish_builder st bc
  end

(* Cold path: the per-step decode pipeline, plus feeding the builder. *)
let step_cold st (bc : Block_cache.t) pa start_pc =
  (* cold-only instructions push or replace the PSL (CHMx, REI,
     LDPCTX): materialize any deferred codes first *)
  State.sync_cc st;
  bc.Block_cache.misses <- bc.Block_cache.misses + 1;
  bc.Block_cache.cur_pa <- -1;
  bc.Block_cache.cur_va <- -1;
  let decoded = ref Decode.undecoded in
  try
    let d =
      match Decode_cache.find st.State.dcache ~mmu:st.State.mmu pa with
      | tmpl ->
          feed_builder st bc pa tmpl;
          Decode.operandize st tmpl ~start_pc
      | exception Not_found ->
          let d = Decode.decode st in
          Decode_cache.store st.State.dcache ~mmu:st.State.mmu
            ?pa2:(straddle_pa2 st start_pc d.Decode.tmpl pa)
            pa d.Decode.tmpl;
          feed_builder st bc pa d.Decode.tmpl;
          d
    in
    decoded := d;
    run_decoded st d ~start_pc
  with State.Fault f -> fault_finish st !decoded ~start_pc f

(* Execute the slot at the cursor and advance the cursor (before the
   slot runs: a fault or branch simply makes the prediction miss).  The
   advance also arms the fetch memo: the caller just translated
   [start_pc] successfully, so as long as the TB and the mode do not
   change, translating the fall-through PC (same page — blocks never
   cross a page) must yield the next slot's [s_pa].  Recording happens
   before [s_exec] runs, so the memoed mode is exactly the fetch's mode,
   and any TB fill the body performs bumps the generation and disarms
   the memo. *)
let exec_slot st (bc : Block_cache.t) (b : Block_cache.block) ix start_pc =
  let open Block_cache in
  bc.hits <- bc.hits + 1;
  let s = Array.unsafe_get b.b_slots ix in
  let nix = ix + 1 in
  if nix < Array.length b.b_slots then begin
    let mmu = st.State.mmu in
    bc.cur_block <- b;
    bc.cur_ix <- nix;
    bc.cur_pa <- (Array.unsafe_get b.b_slots nix).s_pa;
    bc.cur_va <- start_pc + s.s_len;
    bc.cur_fgen <- Tlb.mutation_generation (Mmu.tlb mmu);
    bc.cur_fmode <- State.cur_mode st;
    bc.cur_fhit <- Mmu.mapen mmu
  end
  else begin
    bc.cur_pa <- -1;
    bc.cur_va <- -1;
    bc.last <- b
  end;
  s.s_exec st start_pc

(* Entry at a block head: try the chain links of the block we just left,
   then the table; install/refresh the chain link on a table hit. *)
let enter_block st (bc : Block_cache.t) pa start_pc =
  let open Block_cache in
  let phys = Mmu.phys st.State.mmu in
  let valid b =
    b != empty_block && b.b_pa = pa
    && slot_valid phys (Array.unsafe_get b.b_slots 0)
  in
  let last = bc.last in
  bc.last <- empty_block;
  let b =
    if last != empty_block then begin
      let c1 = last.b_chain1 in
      if valid c1 then begin
        bc.chains <- bc.chains + 1;
        c1
      end
      else begin
        let c2 = last.b_chain2 in
        if valid c2 then begin
          (* promote the second-chance link *)
          last.b_chain2 <- c1;
          last.b_chain1 <- c2;
          bc.chains <- bc.chains + 1;
          c2
        end
        else empty_block
      end
    end
    else empty_block
  in
  let b =
    if b != empty_block then b
    else begin
      let t = lookup bc pa in
      if valid t then begin
        if last != empty_block && last.b_chain1 != t then begin
          last.b_chain2 <- last.b_chain1;
          last.b_chain1 <- t
        end;
        t
      end
      else begin
        if t != empty_block then invalidate bc t;
        empty_block
      end
    end
  in
  if b != empty_block then exec_slot st bc b 0 start_pc
  else step_cold st bc pa start_pc

(* One architectural step under the block engine.  The machine loop keeps
   calling this once per instruction, so device scheduling, interrupt
   sampling, and halt/stop checks all happen at exactly the same
   instruction boundaries as with [step] — simulated time and interrupt
   latency are bit-identical; only host wall-clock changes. *)
let step_blocks st (bc : Block_cache.t) =
  if st.State.halted then Machine_halted
  else if st.State.stop_requested then Stopped
  else begin
    (match State.highest_pending st with
    | Some (ipl, vector) ->
        (* prediction and pending chain link die across the delivery *)
        bc.Block_cache.cur_pa <- -1;
        bc.Block_cache.cur_va <- -1;
        bc.Block_cache.last <- Block_cache.empty_block;
        Microcode.take_interrupt st ~ipl ~vector
    | None ->
        let start_pc = State.pc st in
        let mmu = st.State.mmu in
        if
          bc.Block_cache.cur_va = start_pc
          && bc.Block_cache.cur_fgen = Tlb.mutation_generation (Mmu.tlb mmu)
          && bc.Block_cache.cur_fmode == State.cur_mode st
        then begin
          (* fetch memo hit: the TB has had no fill or invalidation and
             the mode is unchanged since the previous slot's fetch on
             this same page, so translating [start_pc] would
             deterministically repeat that outcome — the predicted
             [cur_pa] (= the slot's [s_pa]) IS the translation.  The TB
             lookup is skipped but its hit is still counted ([cur_fhit])
             so TB statistics stay identical to the per-step loop. *)
          let open Block_cache in
          let b = bc.cur_block in
          let ix = bc.cur_ix in
          let s = Array.unsafe_get b.b_slots ix in
          let phys = Mmu.phys mmu in
          if s.s_gen1 = Phys_mem.page_gen phys (s.s_pa lsr Addr.page_shift)
          then begin
            if bc.cur_fhit then begin
              Tlb.count_hit (Mmu.tlb mmu);
              if Cost.tlb_hit <> 0 then
                Cycles.charge st.State.clock Cost.tlb_hit
            end;
            bc.hits <- bc.hits + 1;
            let nix = ix + 1 in
            if nix < Array.length b.b_slots then begin
              bc.cur_ix <- nix;
              bc.cur_pa <- (Array.unsafe_get b.b_slots nix).s_pa;
              bc.cur_va <- start_pc + s.s_len
              (* cur_fgen/cur_fmode/cur_fhit still hold: nothing between
                 the memo check and here can change them *)
            end
            else begin
              bc.cur_pa <- -1;
              bc.cur_va <- -1;
              bc.last <- b
            end;
            s.s_exec st start_pc
          end
          else begin
            (* block went stale under a live memo (stored-to page):
               re-fetch for real, then take the cold path *)
            Block_cache.invalidate bc b;
            match State.code_pa st start_pc with
            | exception State.Fault f ->
                Microcode.dispatch_fault st ~start_pc ~next_pc:start_pc f
            | pa -> step_cold st bc pa start_pc
          end
        end
        else begin
          match State.code_pa st start_pc with
          | exception State.Fault f ->
              bc.Block_cache.cur_pa <- -1;
              bc.Block_cache.cur_va <- -1;
              Microcode.dispatch_fault st ~start_pc ~next_pc:start_pc f
          | pa ->
              if bc.Block_cache.cur_pa = pa then begin
                (* cursor hit on a cold memo (TB or mode changed since
                   the advance): [exec_slot] inlined, re-arming the
                   memo with the fresh generation *)
                let open Block_cache in
                let b = bc.cur_block in
                let ix = bc.cur_ix in
                let s = Array.unsafe_get b.b_slots ix in
                let phys = Mmu.phys mmu in
                if s.s_gen1 = Phys_mem.page_gen phys (s.s_pa lsr Addr.page_shift)
                then begin
                  bc.hits <- bc.hits + 1;
                  let nix = ix + 1 in
                  if nix < Array.length b.b_slots then begin
                    bc.cur_ix <- nix;
                    bc.cur_pa <- (Array.unsafe_get b.b_slots nix).s_pa;
                    bc.cur_va <- start_pc + s.s_len;
                    bc.cur_fgen <- Tlb.mutation_generation (Mmu.tlb mmu);
                    bc.cur_fmode <- State.cur_mode st;
                    bc.cur_fhit <- Mmu.mapen mmu
                  end
                  else begin
                    bc.cur_pa <- -1;
                    bc.cur_va <- -1;
                    bc.last <- b
                  end;
                  s.s_exec st start_pc
                end
                else begin
                  Block_cache.invalidate bc b;
                  step_cold st bc pa start_pc
                end
              end
              else enter_block st bc pa start_pc
        end);
    if st.State.halted then Machine_halted
    else if st.State.stop_requested then Stopped
    else Stepped
  end

let run_blocks st bc ?(max_instructions = max_int) () =
  let rec loop n =
    if n <= 0 then Stepped
    else
      match step_blocks st bc with
      | Stepped -> loop (n - 1)
      | (Machine_halted | Stopped) as s -> s
  in
  let s = loop max_instructions in
  (* the caller is about to observe the PSL *)
  State.sync_cc st;
  s

(* Which execution engine a machine uses; [Blocks] is the default
   everywhere, [Stepper] is the reference interpreter. *)
type engine = Stepper | Blocks
