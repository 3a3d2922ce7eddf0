open Vax_arch
open Vax_mem
module Trace = Vax_obs.Trace

(* ------------------------------------------------------------------ *)
(* Exception initiation                                                *)

(* Push the [n] longwords assembled in [st.frame] on the current stack,
   [frame.(n-1)] first (highest address) and [frame.(0)] last, on top.
   When the whole frame lies on one page that the TLB maps for a write,
   in RAM, with no fault plan armed, the push takes one translation and
   charges, counts and stores exactly what the per-word pushes would;
   otherwise it is one [State.push_long] per word.  A fault here means
   the service stack itself is bad: the callers contain it as a double
   fault. *)
let push_frame st n =
  let sp = State.sp st in
  let base = sp - (4 * n) in
  if
    base >= 0
    && Vax_fault.Engine.is_null st.State.inject
    && Mmu.v_write_longs_fast st.State.mmu ~mode:(State.cur_mode st) base
         st.State.frame n
  then begin
    State.set_sp st base;
    st.State.frame_pushes_fast <- st.State.frame_pushes_fast + 1
  end
  else
    for i = n - 1 downto 0 do
      State.push_long st st.State.frame.(i)
    done

(* A fault raised while *delivering* an exception: the SCB, the service
   stack, or the PCB is itself bad.  A real VAX is architecturally
   stuck and aborts to the console; we record the reason and halt
   cleanly — the outcome becomes [Machine.Double_fault], never an
   escaping OCaml exception. *)
let double_fault st ~vector e =
  let what =
    match e with
    | State.Fault f -> Format.asprintf "%a" State.pp_fault f
    | Phys_mem.Nonexistent_memory pa ->
        Format.asprintf "nonexistent memory pa=%a" Word.pp pa
    | Vax_fault.Engine.Parity_error pa ->
        Format.asprintf "memory parity pa=%a" Word.pp pa
    | e -> raise e
  in
  State.double_fault_halt st
    (Printf.sprintf "exception delivery through vector 0x%02X faulted: %s"
       vector what)

(* Lay out the VM-emulation header and operands from the exit record in
   [st.frame] (opcode, length, VM PSL, operand count, then tag, value and
   side effect per operand, top of stack first); returns the words
   used. *)
let vm_frame_words st =
  let x = st.State.exit and f = st.State.frame in
  let nops = x.State.x_noperands in
  Cycles.charge st.State.clock (nops * Cost.vm_operand_capture);
  f.(0) <- Opcode.code x.State.x_opcode;
  f.(1) <- x.State.x_length;
  f.(2) <- x.State.x_vm_psl;
  f.(3) <- nops;
  for i = 0 to nops - 1 do
    f.(4 + (3 * i)) <- x.State.x_op_tag.(i);
    f.(5 + (3 * i)) <- x.State.x_op_value.(i);
    let se = x.State.x_op_side_effect.(i) in
    f.(6 + (3 * i)) <- (if se < 0 then 0xFFFF_FFFF else se)
  done;
  4 + (3 * nops)

(* Hand the event to the agent through the machine's exit record. *)
let call_agent st agent ~vector ~nparams ~p0 ~p1 ~saved_pc ~saved_psl
    ~interrupt ~from_vm ~words =
  let x = st.State.exit in
  x.State.x_vector <- vector;
  x.State.x_pc <- saved_pc;
  x.State.x_psl <- saved_psl;
  x.State.x_interrupt <- interrupt;
  x.State.x_from_vm <- from_vm;
  x.State.x_nparams <- nparams;
  x.State.x_params.(0) <- p0;
  x.State.x_params.(1) <- p1;
  x.State.x_frame_words <- words;
  agent x

(* The SCB entry for [vector], read physically via SCBB; with an agent
   attached the handler address is unused but the fetch is still
   charged. *)
let scb_entry st vector =
  Cycles.charge st.State.clock Cost.memory_access;
  if st.State.agent = None then
    Phys_mem.read_long (Mmu.phys st.State.mmu) (Word.add st.State.scbb vector)
  else 0

(* Initiate an exception or interrupt: push PSL, PC, the [nparams] (0–2)
   parameters [p0] (top of stack) and [p1], and with [vm_frame] the
   VM-emulation header and operands above them, on the service stack;
   switch mode (and stack), clear PSL<VM> (charging the VM exit cost when
   it was set), then dispatch to the agent or through the SCB.
   [new_ipl] < 0 keeps the current IPL. *)
let deliver_exception st ~vector ~nparams ~p0 ~p1 ~saved_pc ~interrupt
    ~new_ipl ~force_is ~vm_frame =
  (* the PSL is about to be observed (saved/pushed): materialize any
     condition codes the superblock engine deferred *)
  State.sync_cc st;
  Cycles.charge st.State.clock Cost.exception_initiate;
  State.count_exception st vector;
  let from_vm =
    st.State.variant = Variant.Virtualizing && Psl.vm st.State.psl
  in
  if from_vm then Cycles.charge st.State.clock Cost.vm_exit_extra;
  (let tr = st.State.trace in
   if Trace.enabled tr then begin
     Trace.emit tr
       (if interrupt then Trace.Interrupt else Trace.Exception)
       ~b:saved_pc
       ~c:(if from_vm then 1 else 0)
       vector;
     if from_vm then Trace.emit tr Trace.Vm_exit ~b:saved_pc vector
   end);
  let saved_psl = st.State.psl in
  (* From here delivery touches memory the machine cannot fault its way
     out of — the SCB entry (raw physical via SCBB) and the service
     stack.  A machine check or memory-management fault in this span is
     a double fault: contain it as a clean halt. *)
  try
    let entry = scb_entry st vector in
    let use_is =
      interrupt || force_is || Psl.is saved_psl
      || (st.State.agent = None && entry land 1 = 1)
    in
    let new_psl =
      (* the condition codes and trap enables start clear *)
      let p = Word.logand saved_psl (Word.lognot 0xFF) in
      let p = Psl.with_cur p Mode.Kernel in
      let p =
        Psl.with_prv p (if interrupt then Mode.Kernel else Psl.cur saved_psl)
      in
      let p = Psl.with_vm p false in
      let p = Psl.with_fpd p false in
      let p = Psl.with_is p use_is in
      if new_ipl >= 0 then Psl.with_ipl p new_ipl else p
    in
    State.switch_stack_to st (Psl.stack_slot new_psl);
    st.State.psl <- new_psl;
    let f = st.State.frame in
    let w = if vm_frame then vm_frame_words st else 0 in
    if nparams > 0 then f.(w) <- p0;
    if nparams > 1 then f.(w + 1) <- p1;
    let w = w + nparams in
    f.(w) <- saved_pc;
    f.(w + 1) <- saved_psl;
    push_frame st (w + 2);
    match st.State.agent with
    | Some agent ->
        call_agent st agent ~vector ~nparams ~p0 ~p1 ~saved_pc ~saved_psl
          ~interrupt ~from_vm ~words:(w + 2)
    | None -> State.set_pc st (Word.logand entry (Word.lognot 3))
  with
  | (State.Fault _ | Phys_mem.Nonexistent_memory _
    | Vax_fault.Engine.Parity_error _) as e ->
      double_fault st ~vector e

let deliver_fault st ~vector ~nparams ~p0 ~p1 ~saved_pc =
  deliver_exception st ~vector ~nparams ~p0 ~p1 ~saved_pc ~interrupt:false
    ~new_ipl:(-1) ~force_is:false ~vm_frame:false

(* ------------------------------------------------------------------ *)
(* Fault dispatch                                                      *)

let observe_trap st kind ~pc =
  match st.State.trap_observer with
  | Some f -> f kind pc
  | None -> ()

let dispatch_fault st ~start_pc ~next_pc (fault : State.fault) =
  (match fault with
  | State.Mm_fault (Mmu.Modify_fault { va }) ->
      observe_trap st State.Trap_modify ~pc:start_pc;
      if Trace.enabled st.State.trace then
        Trace.emit st.State.trace Trace.Trap_modify ~b:va start_pc
  | State.Privileged_instruction ->
      observe_trap st State.Trap_privileged ~pc:start_pc;
      if Trace.enabled st.State.trace then
        Trace.emit st.State.trace Trace.Trap_privileged start_pc
  | State.Vm_emulation_fault ->
      observe_trap st State.Trap_vm_emulation ~pc:start_pc;
      if Trace.enabled st.State.trace then
        Trace.emit st.State.trace Trace.Trap_vm_emulation start_pc
  | _ -> ());
  match fault with
  | State.Mm_fault f ->
      deliver_fault st ~vector:(Mmu.fault_vector f) ~nparams:2
        ~p0:(Mmu.fault_param f ~write:false) ~p1:(Mmu.fault_va f)
        ~saved_pc:start_pc
  | State.Privileged_instruction | State.Reserved_instruction ->
      deliver_fault st ~vector:Scb.privileged_instruction ~nparams:0 ~p0:0
        ~p1:0 ~saved_pc:start_pc
  | State.Reserved_operand ->
      deliver_fault st ~vector:Scb.reserved_operand ~nparams:0 ~p0:0 ~p1:0
        ~saved_pc:start_pc
  | State.Reserved_addressing ->
      deliver_fault st ~vector:Scb.reserved_addressing_mode ~nparams:0 ~p0:0
        ~p1:0 ~saved_pc:start_pc
  | State.Breakpoint_fault ->
      deliver_fault st ~vector:Scb.breakpoint ~nparams:0 ~p0:0 ~p1:0
        ~saved_pc:start_pc
  | State.Chm_trap _ ->
      (* handled by [chm], never dispatched here *)
      assert false
  | State.Arithmetic_trap code ->
      deliver_fault st ~vector:Scb.arithmetic ~nparams:1 ~p0:code ~p1:0
        ~saved_pc:next_pc
  | State.Vm_emulation_fault ->
      deliver_exception st ~vector:Scb.vm_emulation ~nparams:0 ~p0:0 ~p1:0
        ~saved_pc:start_pc ~interrupt:false ~new_ipl:(-1) ~force_is:false
        ~vm_frame:true
  | State.Machine_check_fault { mc_code; mc_pa } ->
      deliver_exception st ~vector:Scb.machine_check ~nparams:2 ~p0:mc_code
        ~p1:mc_pa ~saved_pc:start_pc ~interrupt:false ~new_ipl:31
        ~force_is:true ~vm_frame:false;
      (* delivered through the bare machine's SCB (an attached agent —
         the VMM — does its own reflected/absorbed accounting) *)
      if st.State.agent = None && st.State.double_fault = None then
        Vax_fault.Engine.note_mc_delivered st.State.inject

let take_interrupt st ~ipl ~vector =
  st.State.interrupts_taken <- st.State.interrupts_taken + 1;
  (* software interrupts clear their SISR bit; device requests are
     retracted when taken (level-triggered devices re-post). *)
  if vector >= Scb.software_interrupt 1 && vector <= Scb.software_interrupt 15
  then st.State.sisr <- st.State.sisr land lnot (1 lsl ((vector - 0x80) / 4))
  else State.retract_interrupt st ~vector;
  deliver_exception st ~vector ~nparams:0 ~p0:0 ~p1:0 ~saved_pc:(State.pc st)
    ~interrupt:true ~new_ipl:ipl ~force_is:false ~vm_frame:false

(* ------------------------------------------------------------------ *)
(* REI                                                                 *)

let reserved () = raise (State.Fault State.Reserved_operand)

let rei st =
  let cur_psl = st.State.psl in
  let mode = Psl.cur cur_psl in
  let new_pc = State.read_long st mode (State.sp st) in
  let new_psl = State.read_long st mode (Word.add (State.sp st) 4) in
  (* only the modified VAX's kernel may load PSL<VM>: the VMM's entry
     into VM mode ("PSL<VM> is set only by software") *)
  if
    not
      (Psl.rei_valid ~current:cur_psl ~stacked:new_psl
         ~may_enter_vm:(st.State.variant = Variant.Virtualizing))
  then reserved ();
  State.set_sp st (Word.add (State.sp st) 8);
  State.switch_stack_to st (Psl.stack_slot new_psl);
  st.State.psl <- new_psl;
  State.set_pc st new_pc;
  let tr = st.State.trace in
  if Trace.enabled tr then begin
    Trace.emit tr Trace.Rei ~b:new_pc
      ~c:(if Psl.vm new_psl then 1 else 0)
      (Mode.to_int (Psl.cur new_psl));
    if Psl.vm new_psl && not (Psl.vm cur_psl) then
      Trace.emit tr Trace.Vm_entry new_pc
  end

(* ------------------------------------------------------------------ *)
(* CHM                                                                 *)

(* Like any exception, a CHM taken on the interrupt stack stays on it. *)
let chm st ~target ~code ~next_pc =
  let cur = Psl.cur st.State.psl in
  let new_mode = Mode.most_privileged target cur in
  Cycles.charge st.State.clock Cost.exception_initiate;
  let vector = Scb.chm_vector target in
  State.count_exception st vector;
  try
    let entry = scb_entry st vector in
    let saved_psl = st.State.psl in
    let new_psl =
      let p = saved_psl in
      let p = Psl.with_cur p new_mode in
      let p = Psl.with_prv p cur in
      Psl.with_fpd p false
    in
    State.switch_stack_to st (Psl.stack_slot new_psl);
    st.State.psl <- new_psl;
    let code = Word.sext ~width:16 code in
    let f = st.State.frame in
    f.(0) <- code;
    f.(1) <- next_pc;
    f.(2) <- saved_psl;
    push_frame st 3;
    if Trace.enabled st.State.trace then
      Trace.emit st.State.trace Trace.Chm ~b:next_pc (Mode.to_int target);
    match st.State.agent with
    | Some agent ->
        call_agent st agent ~vector ~nparams:1 ~p0:code ~p1:0 ~saved_pc:next_pc
          ~saved_psl ~interrupt:false ~from_vm:false ~words:3
    | None -> State.set_pc st (Word.logand entry (Word.lognot 3))
  with
  | (State.Fault _ | Phys_mem.Nonexistent_memory _
    | Vax_fault.Engine.Parity_error _) as e ->
      double_fault st ~vector e

(* ------------------------------------------------------------------ *)
(* MOVPSL                                                              *)

let movpsl_value st =
  State.sync_cc st;
  if st.State.variant = Variant.Virtualizing && Psl.vm st.State.psl then
    Psl.merge_vmpsl st.State.psl ~vmpsl:st.State.vmpsl
  else Psl.with_vm st.State.psl false

(* ------------------------------------------------------------------ *)
(* Process context                                                     *)

(* PCB references go straight to physical memory via PCBB; a bad PCBB
   used to crash the host with a raw [Nonexistent_memory].  Convert to
   the architectural machine check instead, so LDPCTX/SVPCTX against a
   garbage PCBB is delivered (or contained) like any other MC. *)
let pcb_read st off =
  Cycles.charge st.State.clock Cost.memory_access;
  try Phys_mem.read_long (Mmu.phys st.State.mmu) (Word.add st.State.pcbb off)
  with (Phys_mem.Nonexistent_memory _ | Vax_fault.Engine.Parity_error _) as e ->
    raise (State.machine_check_of_phys e)

let pcb_write st off v =
  Cycles.charge st.State.clock Cost.memory_access;
  try Phys_mem.write_long (Mmu.phys st.State.mmu) (Word.add st.State.pcbb off) v
  with (Phys_mem.Nonexistent_memory _ | Vax_fault.Engine.Parity_error _) as e ->
    raise (State.machine_check_of_phys e)

let processor st =
  match st.State.variant with
  | Variant.Standard -> Ipr.Standard
  | Variant.Virtualizing -> Ipr.Modified

(* The stack pointers and registers are staged in [st.frame] and the
   memory-management registers pass MTPR's rule before anything is
   loaded, so an LDPCTX refused for its P0BR changes nothing. *)
let ldpctx st =
  let f = st.State.frame in
  for slot = 0 to 3 do
    f.(slot) <- pcb_read st (Pcb.sp slot)
  done;
  for r = 0 to 13 do
    f.(4 + r) <- pcb_read st (Pcb.reg r)
  done;
  let mm r off = Ipr.write_value (processor st) r (pcb_read st off) in
  let p0br = mm Ipr.P0BR Pcb.p0br in
  let p0lr = mm Ipr.P0LR Pcb.p0lr in
  let p1br = mm Ipr.P1BR Pcb.p1br in
  let p1lr = mm Ipr.P1LR Pcb.p1lr in
  if p0br < 0 then reserved ();
  for slot = 0 to 3 do
    State.write_sp_of st slot f.(slot)
  done;
  for r = 0 to 13 do
    State.set_reg st r f.(4 + r)
  done;
  Mmu.set_p0br st.State.mmu p0br;
  Mmu.set_p0lr st.State.mmu p0lr;
  Mmu.set_p1br st.State.mmu p1br;
  Mmu.set_p1lr st.State.mmu p1lr;
  Mmu.tb_invalidate_process st.State.mmu;
  (* switch to the kernel stack and set up a frame for the final REI *)
  let psl = Psl.with_is st.State.psl false in
  State.switch_stack_to st (Psl.stack_slot psl);
  st.State.psl <- psl;
  State.push_long st (pcb_read st Pcb.psl);
  State.push_long st (pcb_read st Pcb.pc)

let svpctx st =
  (* pop the PC/PSL pair (pushed by the exception that entered the
     kernel) into the PCB, save registers, switch to the interrupt
     stack *)
  let pc = State.pop_long st in
  let psl = State.pop_long st in
  pcb_write st Pcb.pc pc;
  pcb_write st Pcb.psl psl;
  for slot = 0 to 3 do
    pcb_write st (Pcb.sp slot) (State.read_sp_of st slot)
  done;
  for r = 0 to 13 do
    pcb_write st (Pcb.reg r) (State.reg st r)
  done;
  State.switch_stack_to st 4;
  st.State.psl <- Psl.with_is st.State.psl true

(* ------------------------------------------------------------------ *)
(* Processor registers                                                 *)

(* The access rule is {!Ipr.write_value} and {!Ipr.readable}; what is
   left here is where each register lives.  Device registers go to the
   IPR hooks first. *)
let mtpr st ~value ~regnum =
  match Ipr.of_int (Word.mask regnum) with
  | None -> reserved ()
  | Some r ->
      let v = Ipr.write_value (processor st) r value in
      if v < 0 then reserved ();
      if not (st.State.ipr_write_hook r v) then begin
        match r with
        | Ipr.KSP | Ipr.ESP | Ipr.SSP | Ipr.USP | Ipr.ISP ->
            State.write_sp_of st (Ipr.to_int r) v
        | Ipr.P0BR -> Mmu.set_p0br st.State.mmu v
        | Ipr.P0LR -> Mmu.set_p0lr st.State.mmu v
        | Ipr.P1BR -> Mmu.set_p1br st.State.mmu v
        | Ipr.P1LR -> Mmu.set_p1lr st.State.mmu v
        | Ipr.SBR -> Mmu.set_sbr st.State.mmu v
        | Ipr.SLR -> Mmu.set_slr st.State.mmu v
        | Ipr.PCBB -> st.State.pcbb <- v
        | Ipr.SCBB -> st.State.scbb <- v
        | Ipr.IPL -> st.State.psl <- Psl.with_ipl st.State.psl v
        | Ipr.SIRR -> st.State.sisr <- st.State.sisr lor (1 lsl v)
        | Ipr.SISR -> st.State.sisr <- v
        | Ipr.MAPEN ->
            Mmu.set_mapen st.State.mmu (v = 1);
            Mmu.tbia st.State.mmu
        | Ipr.TBIA -> Mmu.tbia st.State.mmu
        | Ipr.TBIS -> Mmu.tbis st.State.mmu v
        | Ipr.VMPSL -> st.State.vmpsl <- v
        | Ipr.VMPEND -> st.State.vmpend <- v
        | _ ->
            (* a device register with no device attached: write ignored *)
            ()
      end

let mfpr st ~regnum =
  match Ipr.of_int (Word.mask regnum) with
  | Some r when Ipr.exists (processor st) r && Ipr.readable r -> (
      match st.State.ipr_read_hook r with
      | Some v -> v
      | None -> (
          match r with
          | Ipr.KSP | Ipr.ESP | Ipr.SSP | Ipr.USP | Ipr.ISP ->
              State.read_sp_of st (Ipr.to_int r)
          | Ipr.P0BR -> Mmu.p0br st.State.mmu
          | Ipr.P0LR -> Mmu.p0lr st.State.mmu
          | Ipr.P1BR -> Mmu.p1br st.State.mmu
          | Ipr.P1LR -> Mmu.p1lr st.State.mmu
          | Ipr.SBR -> Mmu.sbr st.State.mmu
          | Ipr.SLR -> Mmu.slr st.State.mmu
          | Ipr.PCBB -> st.State.pcbb
          | Ipr.SCBB -> st.State.scbb
          | Ipr.IPL -> Psl.ipl st.State.psl
          | Ipr.SISR -> st.State.sisr
          | Ipr.MAPEN -> if Mmu.mapen st.State.mmu then 1 else 0
          | Ipr.SID -> st.State.sid
          | Ipr.VMPSL -> st.State.vmpsl
          | Ipr.VMPEND -> st.State.vmpend
          | _ -> 0 (* a device register with no device attached *)))
  | _ -> reserved ()

(* ------------------------------------------------------------------ *)
(* VM-emulation trap construction                                      *)

(* Side effects are NOT undone here: the step loop backs them out for all
   fault-style exceptions uniformly, and the exit record's side-effect
   fields let the VMM re-apply them when it emulates rather than
   retries. *)
let vm_emulation_exn = State.Fault State.Vm_emulation_fault

let vm_emulation_trap st (d : Decode.decoded) ~start_pc =
  ignore start_pc;
  let x = st.State.exit in
  x.State.x_opcode <- d.Decode.opcode;
  x.State.x_length <- d.Decode.length;
  x.State.x_vm_psl <- Psl.merge_vmpsl st.State.psl ~vmpsl:st.State.vmpsl;
  Decode.capture_vm_operands x d;
  raise vm_emulation_exn
