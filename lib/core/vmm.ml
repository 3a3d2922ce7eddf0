open Vax_arch
open Vax_mem
open Vax_cpu
open Vax_dev

type config = {
  shadow_cache_slots : int;
  shadow_cache_enabled : bool;
  prefill_group : int;
  separate_vmm_space : bool;
  ipl_assist : bool;
  time_slice_cycles : int;
  default_io_mode : Vm.io_mode;
  ro_shadow_scheme : bool;
}

let default_config =
  {
    shadow_cache_slots = 4;
    shadow_cache_enabled = true;
    prefill_group = 0;
    separate_vmm_space = false;
    ipl_assist = false;
    time_slice_cycles = 20_000;
    default_io_mode = Vm.Kcall_io;
    ro_shadow_scheme = false;
  }

type t = {
  m : Machine.t;
  cfg : config;
  alloc : Layout.allocator;
  shared_stack_pfn : int;
  mutable vm_order : Vm.t array;  (** round-robin order, next in line first *)
  mutable running : Vm.t option;
      (** the VM last entered; its R0–R13 are live in the CPU (see
          {!vm_reg}) *)
  mutable installed_for : int;
      (** vid whose shadow tables are live; -1 = none *)
  mutable slice_expired : bool;
  mutable next_vid : int;
  mutable next_disk_block : int;
}

let machine t = t.m
let config t = t.cfg
let vms t = Array.to_list t.vm_order
let doorbell_level = 1

let st t = t.m.Machine.cpu
let mmu t = t.m.Machine.mmu
let phys t = t.m.Machine.phys
let clock t = t.m.Machine.clock
let charge t n = Cycles.charge (clock t) n
let now t = Cycles.now (clock t)

let doorbell t = (st t).State.sisr <- (st t).State.sisr lor (1 lsl doorbell_level)

let console_output (vm : Vm.t) = Buffer.contents vm.Vm.console_out
let guest_instructions (vm : Vm.t) = vm.Vm.guest_instructions

(* ------------------------------------------------------------------ *)
(* VM-physical access (host side)                                      *)

let vm_phys_read_long t vm vmpa =
  let pa = Shadow.vm_phys_addr vm vmpa ~len:4 in
  if pa < 0 then invalid_arg ("Vmm.vm_phys_read_long: " ^ Shadow.out_of_range vmpa);
  Phys_mem.read_long (phys t) pa

(* ------------------------------------------------------------------ *)
(* The live register file                                              *)

(* While a VM is resident — entered and not yet switched away from —
   its R0–R13 live only in the CPU's registers: the monitor is host code
   and never touches them, so a same-VM exit and re-entry copies
   nothing.  Handlers reach them through [vm_reg]/[set_vm_reg].  They
   are written back to [saved_regs] when the VMM switches to another
   VM, goes idle, or returns from [run], so readers outside the VMM see
   them there.  Halting a VM needs no write-back of its own: the
   scheduler runs after every halt and either switches or goes idle.
   R14 and R15 are kept in [saved_regs] at every exit. *)

let resident t (vm : Vm.t) =
  match t.running with Some v -> v == vm | None -> false

let vm_reg t (vm : Vm.t) r =
  if r < 14 && resident t vm then State.reg (st t) r else vm.Vm.saved_regs.(r)

let set_vm_reg t (vm : Vm.t) r v =
  if r < 14 && resident t vm then State.set_reg (st t) r v
  else vm.Vm.saved_regs.(r) <- Word.mask v

let write_back_running t =
  match t.running with
  | Some vm ->
      let s = st t in
      for r = 0 to 13 do
        vm.Vm.saved_regs.(r) <- State.reg s r
      done
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Halting a VM                                                        *)

let halt_vm (vm : Vm.t) reason =
  vm.Vm.run_state <- Vm.Halted_vm reason;
  vm.Vm.timer_gen <- vm.Vm.timer_gen + 1

(* ------------------------------------------------------------------ *)
(* Handler outcomes                                                    *)

(* What servicing an exit means for the VM.  Every emulator and
   memory-event handler returns one, and [serve] applies it: the one
   place where a guest's error becomes a reflected exception, taken at
   the VM's saved PC, or a halt. *)
type outcome =
  | Resume
  | Reflect of { vector : int; params : Word.t list }
  | Halt of string

let reserved_operand = Reflect { vector = Scb.reserved_operand; params = [] }

(* A memory-management fault the VM takes; [orig_write] marks one the
   VM's write reference caused, whatever the fault says.  The virtual
   VAX also uses the modify-fault discipline. *)
let fault_reflection (fault : Mmu.fault) ~orig_write =
  Reflect
    {
      vector = Mmu.fault_vector fault;
      params = [ Mmu.fault_param fault ~write:orig_write; Mmu.fault_va fault ];
    }

(* A guest-memory read that cannot complete raises [Stop] with what that
   means for the VM; only [serve] catches it. *)
exception Stop of outcome

(* ------------------------------------------------------------------ *)
(* Guest virtual-memory access with shadow servicing                   *)

let ensure_installed t (vm : Vm.t) =
  if t.installed_for <> vm.Vm.vid then begin
    Shadow.install_mm_registers (mmu t) vm;
    t.installed_for <- vm.Vm.vid
  end

(* Service a fault a VMM access to guest memory took, as the
   hardware/VMM pair would: [Resume] once the shadow tables let the
   access be retried, otherwise what the fault means for the VM. *)
let service_fault t vm ~write ~attempts (fault : Mmu.fault) =
  match fault with
  | Mmu.Translation_not_valid { va; _ } when attempts > 0 -> (
      match Shadow.fill (mmu t) vm ~prefill:t.cfg.prefill_group
              ~ro_scheme:t.cfg.ro_shadow_scheme va with
      | Shadow.Filled -> Resume
      | Shadow.Reflect fault -> fault_reflection fault ~orig_write:write
      | Shadow.Io_ref _ -> Halt "VMM access touched VM I/O space"
      | Shadow.Halt_nxm m -> Halt m)
  | Mmu.Modify_fault { va } when attempts > 0 -> (
      match Shadow.set_modify (mmu t) vm va with
      | Ok () -> Resume
      | Error m -> Halt m)
  | _ -> fault_reflection fault ~orig_write:write

let rec read_retrying t vm ~mode va ~attempts =
  match Mmu.v_read_long (mmu t) ~mode va with
  | Ok v ->
      charge t Cost.vmm_guest_mem;
      v
  | Error fault -> (
      match service_fault t vm ~write:false ~attempts fault with
      | Resume -> read_retrying t vm ~mode va ~attempts:(attempts - 1)
      | o -> raise (Stop o))

let rec write_retrying t vm ~mode va v ~attempts =
  match Mmu.v_write_long (mmu t) ~mode va v with
  | Ok () ->
      charge t Cost.vmm_guest_mem;
      Resume
  | Error fault -> (
      match service_fault t vm ~write:true ~attempts fault with
      | Resume -> write_retrying t vm ~mode va v ~attempts:(attempts - 1)
      | o -> o)

(* Both accessors try the MMU's allocation-free fast half first: it
   charges exactly what the first attempt would on a TLB hit, and
   nothing otherwise.  A read that cannot complete raises [Stop]; a
   write returns its outcome. *)
let guest_read_long t vm ~vmode va =
  ensure_installed t vm;
  let mode = Ring.compress_mode vmode in
  let v = Mmu.v_read_long_fast (mmu t) ~mode va in
  if v >= 0 then begin
    charge t Cost.vmm_guest_mem;
    v
  end
  else read_retrying t vm ~mode va ~attempts:3

let guest_write_long t vm ~vmode va v =
  ensure_installed t vm;
  let mode = Ring.compress_mode vmode in
  if Mmu.v_write_long_fast (mmu t) ~mode va v then begin
    charge t Cost.vmm_guest_mem;
    Resume
  end
  else write_retrying t vm ~mode va v ~attempts:4

(* ------------------------------------------------------------------ *)
(* PSL plumbing                                                        *)

(* The real PSL a VM runs with: condition codes, trap enables and FPD
   from [cc_src], current/previous mode compressed from the virtual PSL,
   real IPL 0 (so the VMM regains control on any real interrupt),
   PSL<VM>. *)
let resume_psl (vm : Vm.t) cc_src =
  let p = Word.logand cc_src (Psl.with_fpd 0xFF true) in
  let p = Psl.with_cur p (Ring.compress_mode (Psl.cur vm.Vm.saved_vmpsl)) in
  let p = Psl.with_prv p (Ring.compress_mode (Psl.prv vm.Vm.saved_vmpsl)) in
  let p = Psl.with_ipl p 0 in
  let p = Psl.with_is p false in
  Psl.with_vm p true

let merged_saved_psl (vm : Vm.t) =
  Psl.merge_vmpsl vm.Vm.saved_psl ~vmpsl:vm.Vm.saved_vmpsl

let vstack_slot (vm : Vm.t) = Psl.stack_slot vm.Vm.saved_vmpsl

(* ------------------------------------------------------------------ *)
(* Reflecting exceptions and delivering virtual interrupts             *)

(* The VM's SCB entry for [vector], or -1 when it lies outside the VM's
   memory. *)
let read_vm_scb_entry t (vm : Vm.t) vector =
  charge t Cost.vmm_guest_mem;
  let pa = Shadow.vm_phys_addr vm (Word.add vm.Vm.scbb vector) ~len:4 in
  if pa < 0 then -1 else Phys_mem.read_long (phys t) pa

let scb_unreachable (vm : Vm.t) vector =
  "SCB unreachable: " ^ Shadow.out_of_range (Word.add vm.Vm.scbb vector)

(* Store [params] upward from [sp] with the PC and PSL above them, the
   deepest word first, as successive pushes would. *)
let rec store_frame t vm sp ~pc ~psl = function
  | [] -> (
      match guest_write_long t vm ~vmode:Mode.Kernel (Word.add sp 4) psl with
      | Resume -> guest_write_long t vm ~vmode:Mode.Kernel sp pc
      | o -> o)
  | p :: rest -> (
      match store_frame t vm (Word.add sp 4) ~pc ~psl rest with
      | Resume -> guest_write_long t vm ~vmode:Mode.Kernel sp p
      | o -> o)

(* Push an exception frame — the PSL, the PC, then [params], the first
   ending on top — on the VM stack in [target_slot].  The stack pointer
   moves only once every word has landed. *)
let push_vm_frame t (vm : Vm.t) ~target_slot ~params ~pc ~psl =
  let sp = Word.sub vm.Vm.sps.(target_slot) (4 * (List.length params + 2)) in
  let o = store_frame t vm sp ~pc ~psl params in
  if o == Resume then vm.Vm.sps.(target_slot) <- sp;
  o

(* Take [vector] in the VM: push its frame on the stack its SCB entry
   selects, or on the interrupt stack when [force_is] (a machine check,
   as on the bare machine), and enter the handler in virtual kernel mode
   at IPL [ipl].  A frame that cannot be pushed halts the VM. *)
let take_in_vm t (vm : Vm.t) ~vector ~params ~prv ~ipl ~force_is =
  let entry = read_vm_scb_entry t vm vector in
  if entry < 0 then halt_vm vm (scb_unreachable vm vector)
  else
    let use_is = force_is || entry land 1 = 1 || Psl.is vm.Vm.saved_vmpsl in
    match
      push_vm_frame t vm
        ~target_slot:(if use_is then 4 else 0)
        ~params ~pc:vm.Vm.saved_regs.(15) ~psl:(merged_saved_psl vm)
    with
    | Resume ->
        let vp = Psl.with_prv (Psl.with_cur vm.Vm.saved_vmpsl Mode.Kernel) prv in
        vm.Vm.saved_vmpsl <- Psl.with_ipl (Psl.with_is vp use_is) ipl;
        vm.Vm.saved_regs.(15) <- Word.logand entry (Word.lognot 3);
        vm.Vm.saved_psl <- resume_psl vm 0
    | Halt m -> halt_vm vm m
    | Reflect _ ->
        halt_vm vm
          (if use_is then "VM interrupt stack not valid"
           else "VM kernel stack not valid during exception")

let reflect_exception t (vm : Vm.t) ~vector ~params =
  charge t Cost.vmm_interrupt_deliver;
  vm.Vm.stats.Vm.reflected_faults <- vm.Vm.stats.Vm.reflected_faults + 1;
  let vp = vm.Vm.saved_vmpsl in
  take_in_vm t vm ~vector ~params ~prv:(Psl.cur vp) ~ipl:(Psl.ipl vp)
    ~force_is:(vector = Scb.machine_check)

let deliver_virq t (vm : Vm.t) ~level ~vector =
  charge t Cost.vmm_interrupt_deliver;
  vm.Vm.stats.Vm.virq_delivered <- vm.Vm.stats.Vm.virq_delivered + 1;
  (if vector >= Scb.software_interrupt 1 && vector <= Scb.software_interrupt 15
   then vm.Vm.sisr <- vm.Vm.sisr land lnot (1 lsl ((vector - 0x80) / 4))
   else Vm.retract_virq vm ~vector);
  take_in_vm t vm ~vector ~params:[] ~prv:Mode.Kernel ~ipl:level ~force_is:false

(* Apply a handler's outcome to the VM. *)
let apply t vm = function
  | Resume -> ()
  | Reflect { vector; params } -> reflect_exception t vm ~vector ~params
  | Halt reason -> halt_vm vm reason

(* ------------------------------------------------------------------ *)
(* Virtual interval timer                                              *)

let vtimer_running (vm : Vm.t) = vm.Vm.iccs land 1 <> 0 && vm.Vm.iccs land 0x40 <> 0

(* The virtual interval clock ticks in simulated wall time whenever the
   guest has it running: a pending tick wakes an idle (WAITing) VM, but
   is *delivered* only when the VM next runs — the paper's "timer
   interrupts are delivered only when the VM is actually running". *)
let rec arm_vtimer t (vm : Vm.t) =
  let gen = vm.Vm.timer_gen in
  Sched.after t.m.Machine.sched ~delay:(max 500 vm.Vm.nicr) (fun () ->
      if gen = vm.Vm.timer_gen && vtimer_running vm
         && (match vm.Vm.run_state with Vm.Halted_vm _ -> false | _ -> true)
      then begin
        let was = Cycles.in_monitor (clock t) in
        Cycles.set_in_monitor (clock t) true;
        vm.Vm.uptime_ticks <- vm.Vm.uptime_ticks + 1;
        vm.Vm.iccs <- vm.Vm.iccs lor 0x80;
        Vm.post_virq vm ~level:Timer.ipl ~vector:Scb.interval_timer;
        doorbell t;
        Cycles.set_in_monitor (clock t) was;
        arm_vtimer t vm
      end)

let cancel_vtimer (vm : Vm.t) = vm.Vm.timer_gen <- vm.Vm.timer_gen + 1

(* ------------------------------------------------------------------ *)
(* Entering and leaving VMs                                            *)

(* R0–R13 stay live in the CPU (see [vm_reg]); the rest of the guest
   context is saved. *)
let sync_vm_on_exit t (vm : Vm.t) (x : State.exit_record) =
  let s = st t in
  let real_slot = Mode.to_int (Psl.cur x.State.x_psl) in
  let guest_sp = State.read_sp_of s real_slot in
  (* [vstack_slot] reads saved_vmpsl, so refresh it before using it *)
  vm.Vm.saved_vmpsl <- s.State.vmpsl;
  vm.Vm.sps.(vstack_slot vm) <- guest_sp;
  vm.Vm.saved_regs.(14) <- guest_sp;
  vm.Vm.saved_regs.(15) <- x.State.x_pc;
  vm.Vm.saved_psl <- x.State.x_psl;
  vm.Vm.guest_instructions <-
    vm.Vm.guest_instructions + (s.State.vm_instructions - vm.Vm.instr_mark);
  vm.Vm.instr_mark <- s.State.vm_instructions

let enter_vm t (vm : Vm.t) =
  let s = st t in
  Vm.wake vm;
  ensure_installed t vm;
  (* deliver the highest pending virtual interrupt first, if any is above
     the VM's IPL *)
  (match Vm.deliverable_virq vm ~vm_ipl:(Psl.ipl vm.Vm.saved_vmpsl) with
  | Some (level, vector) -> deliver_virq t vm ~level ~vector
  | None -> ());
  match vm.Vm.run_state with
  | Vm.Halted_vm _ -> false
  | Vm.Idle_until _ | Vm.Runnable ->
      if t.cfg.separate_vmm_space then begin
        charge t Cost.vmm_address_space_switch;
        Mmu.tbia (mmu t)
      end;
      let same = resident t vm in
      if not same then begin
        write_back_running t;
        for r = 0 to 13 do
          State.set_reg s r vm.Vm.saved_regs.(r)
        done
      end;
      s.State.vmpsl <- vm.Vm.saved_vmpsl;
      s.State.vmpend <- Vm.highest_pending_level vm;
      s.State.ipl_assist <- t.cfg.ipl_assist;
      (* real stack bank: VMM stacks in kernel/interrupt slots, the VM's
         virtual stack pointers in the outer-ring slots *)
      s.State.sp_bank.(0) <- Layout.kernel_stack_top_va;
      s.State.sp_bank.(4) <- Layout.interrupt_stack_top_va;
      s.State.sp_bank.(2) <- vm.Vm.sps.(2);
      s.State.sp_bank.(3) <- vm.Vm.sps.(3);
      (* the real executive slot holds the VM's kernel or interrupt
         stack while it runs in either, its executive stack otherwise *)
      let vslot = vstack_slot vm in
      s.State.sp_bank.(1) <-
        vm.Vm.sps.(if vslot = 4 || vslot = 0 then vslot else 1);
      s.State.psl <- resume_psl vm vm.Vm.saved_psl;
      let cur_slot = Mode.to_int (Psl.cur s.State.psl) in
      State.set_sp s s.State.sp_bank.(cur_slot);
      State.set_pc s vm.Vm.saved_regs.(15);
      charge t (Opcode.base_cycles Opcode.Rei);
      if Vax_obs.Trace.enabled s.State.trace then
        Vax_obs.Trace.emit s.State.trace Vax_obs.Trace.Vm_entry
          vm.Vm.saved_regs.(15);
      vm.Vm.instr_mark <- s.State.vm_instructions;
      vm.Vm.run_state <- Vm.Runnable;
      if not same then t.running <- Some vm;
      s.State.idle_hint <- false;
      true

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)

(* Move [vm] to the back of the round-robin order, in place. *)
let rotate_to_back t vm =
  let order = t.vm_order in
  let n = Array.length order in
  let rec find i = if i >= n || order.(i) == vm then i else find (i + 1) in
  let i = find 0 in
  if i < n then begin
    Array.blit order (i + 1) order i (n - i - 1);
    order.(n - 1) <- vm
  end

let rec first_runnable order ~now i =
  if i >= Array.length order then None
  else if Vm.is_runnable order.(i) ~now then Some order.(i)
  else first_runnable order ~now (i + 1)

(* Round robin: keep the running VM until its slice expires or it stops
   being runnable, then rotate it to the back and take the first
   runnable VM. *)
let pick t =
  let now' = now t in
  match t.running with
  | Some cur when (not t.slice_expired) && Vm.is_runnable cur ~now:now' ->
      t.running
  | running -> (
      match first_runnable t.vm_order ~now:now' 0 with
      | None -> None
      | Some _ as first -> (
          match running with
          | Some cur ->
              t.slice_expired <- false;
              rotate_to_back t cur;
              first_runnable t.vm_order ~now:now' 0
          | None -> first))

let go_idle t =
  let s = st t in
  write_back_running t;
  t.running <- None;
  let all_halted =
    Array.for_all
      (fun (v : Vm.t) ->
        match v.Vm.run_state with Vm.Halted_vm _ -> true | _ -> false)
      t.vm_order
  in
  if all_halted then s.State.stop_requested <- true
  else begin
    (* park in kernel mode at IPL 0 on the interrupt stack so the next
       event (doorbell, timer, idle deadline) reaches the VMM *)
    s.State.psl <-
      Psl.with_is (Psl.with_ipl (Psl.with_cur 0 Mode.Kernel) 0) true;
    s.State.sp_bank.(4) <- Layout.interrupt_stack_top_va;
    State.set_sp s Layout.interrupt_stack_top_va;
    s.State.idle_hint <- true;
    (* make sure idle deadlines generate wakeups *)
    Array.iter
      (fun (v : Vm.t) ->
        match v.Vm.run_state with
        | Vm.Idle_until deadline when deadline > now t ->
            Sched.at t.m.Machine.sched ~cycle:deadline (fun () -> doorbell t)
        | _ -> ())
      t.vm_order
  end

let rec schedule_from t before =
  match pick t with
  | None -> go_idle t
  | Some vm ->
      let same = match before with Some v -> v == vm | None -> false in
      if not same then charge t Cost.vmm_context_switch;
      if not (enter_vm t vm) then schedule_from t before

let schedule t = schedule_from t t.running

(* ------------------------------------------------------------------ *)
(* Emulation helpers: operand plumbing                                 *)

let op_value (x : State.exit_record) i = x.State.x_op_value.(i)

let resume_after t (vm : Vm.t) (x : State.exit_record) =
  (* emulated rather than retried: advance the PC and re-apply operand
     side effects that the trap microcode backed out *)
  vm.Vm.saved_regs.(15) <- Word.add vm.Vm.saved_regs.(15) x.State.x_length;
  for i = 0 to x.State.x_noperands - 1 do
    let se = x.State.x_op_side_effect.(i) in
    if se >= 0 then begin
      let rn = se lsr 8 and d = Word.sext ~width:8 (se land 0xFF) in
      if rn = 14 then begin
        let vs = vstack_slot vm in
        vm.Vm.sps.(vs) <- Word.add vm.Vm.sps.(vs) d;
        vm.Vm.saved_regs.(14) <- vm.Vm.sps.(vs)
      end
      else set_vm_reg t vm rn (Word.add (vm_reg t vm rn) d)
    end
  done

(* An emulation that succeeded completes the instruction. *)
let completed t vm x = function
  | Resume ->
      resume_after t vm x;
      Resume
  | o -> o

(* Store an emulated instruction's result into its operand [i]. *)
let write_result t (vm : Vm.t) (x : State.exit_record) i v =
  let dst = op_value x i in
  match x.State.x_op_tag.(i) with
  | 2 ->
      if dst = 14 then begin
        let vs = vstack_slot vm in
        vm.Vm.sps.(vs) <- Word.mask v;
        vm.Vm.saved_regs.(14) <- Word.mask v
      end
      else set_vm_reg t vm dst v;
      Resume
  | 1 -> guest_write_long t vm ~vmode:(Psl.cur vm.Vm.saved_vmpsl) dst v
  | _ -> Resume

(* ------------------------------------------------------------------ *)
(* Virtual console and KCALL                                           *)

let console_feed t (vm : Vm.t) text =
  let was_empty = vm.Vm.console_in = [] in
  vm.Vm.console_in <-
    vm.Vm.console_in
    @ List.init (String.length text) (fun i -> Char.code text.[i]);
  if was_empty && vm.Vm.rxcs land 0x40 <> 0 then begin
    Vm.post_virq vm ~level:Console.rx_ipl ~vector:Scb.console_receive;
    doorbell t
  end

let load_vm_disk t (vm : Vm.t) block data =
  assert (block >= 0 && block < vm.Vm.disk_blocks);
  Disk.write_block t.m.Machine.disk (vm.Vm.disk_base + block) data

let read_vm_disk t (vm : Vm.t) block =
  assert (block >= 0 && block < vm.Vm.disk_blocks);
  Disk.read_block t.m.Machine.disk (vm.Vm.disk_base + block)

(* A transfer moves one 512-byte block, and every byte of its buffer
   must lie in the VM's memory: otherwise status 2, like a bad block. *)
let start_vm_disk_io t (vm : Vm.t) ~write ~vm_block ~vm_buf ~on_done =
  vm.Vm.stats.Vm.io_requests <- vm.Vm.stats.Vm.io_requests + 1;
  charge t Cost.vmm_io_start;
  let pa = Shadow.vm_phys_addr vm vm_buf ~len:Addr.page_size in
  if vm_block < 0 || vm_block >= vm.Vm.disk_blocks || pa < 0 then on_done 2
  else
    Disk.submit t.m.Machine.disk ~write ~block:(vm.Vm.disk_base + vm_block)
      ~phys_addr:pa ~on_complete:(fun () ->
        let was = Cycles.in_monitor (clock t) in
        Cycles.set_in_monitor (clock t) true;
        on_done 1;
        Cycles.set_in_monitor (clock t) was)

(* The KCALL packet is four longwords: function, block, buffer, status. *)
let kcall t (vm : Vm.t) packet_vmpa =
  charge t (4 * Cost.vmm_guest_mem);
  let pa = Shadow.vm_phys_addr vm packet_vmpa ~len:16 in
  if pa < 0 then Halt ("bad KCALL packet: " ^ Shadow.out_of_range packet_vmpa)
  else begin
    let p = phys t in
    let fn = Phys_mem.read_long p pa in
    let block = Phys_mem.read_long p (pa + 4) in
    let buf = Phys_mem.read_long p (pa + 8) in
    (let tr = (st t).State.trace in
     if Vax_obs.Trace.enabled tr then
       Vax_obs.Trace.emit tr Vax_obs.Trace.Kcall ~b:packet_vmpa fn);
    let finish status =
      Phys_mem.write_long p (pa + 12) status;
      Vm.post_virq vm ~level:Disk.ipl ~vector:Scb.disk;
      doorbell t
    in
    (match fn with
    | 0 -> finish 1
    | 1 -> start_vm_disk_io t vm ~write:false ~vm_block:block ~vm_buf:buf
             ~on_done:finish
    | 2 -> start_vm_disk_io t vm ~write:true ~vm_block:block ~vm_buf:buf
             ~on_done:finish
    | _ -> finish 3);
    Resume
  end

(* ------------------------------------------------------------------ *)
(* Virtual processor registers                                         *)

(* The access rule is {!Ipr.write_value} and {!Ipr.readable} on the
   virtual VAX; what is left here is where each register lives in the VM
   and the virtual devices behind it.  MFPR gives the register's value,
   or -1 when the VM may not read it (a reserved operand). *)
let virtual_mfpr t (vm : Vm.t) regnum =
  charge t Cost.vmm_ipr_emulate;
  match Ipr.of_int (Word.mask regnum) with
  | Some r when Ipr.exists Ipr.Virtual r && Ipr.readable r -> (
      match r with
      | Ipr.KSP | Ipr.ESP | Ipr.SSP | Ipr.USP | Ipr.ISP ->
          vm.Vm.sps.(Ipr.to_int r)
      | Ipr.P0BR -> vm.Vm.p0br
      | Ipr.P0LR -> vm.Vm.p0lr
      | Ipr.P1BR -> vm.Vm.p1br
      | Ipr.P1LR -> vm.Vm.p1lr
      | Ipr.SBR -> vm.Vm.sbr
      | Ipr.SLR -> vm.Vm.slr
      | Ipr.PCBB -> vm.Vm.pcbb
      | Ipr.SCBB -> vm.Vm.scbb
      | Ipr.IPL -> Psl.ipl vm.Vm.saved_vmpsl
      | Ipr.SISR -> vm.Vm.sisr
      | Ipr.MAPEN -> if vm.Vm.mapen then 1 else 0
      | Ipr.SID -> State.sid_virtual_vax
      | Ipr.ICCS -> vm.Vm.iccs
      | Ipr.ICR -> vm.Vm.nicr
      | Ipr.TODR -> Word.mask (now t / 1000)
      | Ipr.RXCS ->
          vm.Vm.rxcs lor (if vm.Vm.console_in <> [] then 0x80 else 0)
      | Ipr.RXDB -> (
          match vm.Vm.console_in with
          | [] -> 0
          | c :: rest ->
              vm.Vm.console_in <- rest;
              Vm.retract_virq vm ~vector:Scb.console_receive;
              if rest <> [] && vm.Vm.rxcs land 0x40 <> 0 then
                Vm.post_virq vm ~level:Console.rx_ipl
                  ~vector:Scb.console_receive;
              c)
      | Ipr.TXCS -> vm.Vm.txcs lor 0x80
      | Ipr.MEMSIZE -> vm.Vm.memsize
      | Ipr.UPTIME -> Word.mask (now t / 10_000)
      | _ -> 0 (* TXDB; the guard refused every other register *))
  | _ -> -1

let virtual_mtpr t (vm : Vm.t) ~value ~regnum =
  charge t Cost.vmm_ipr_emulate;
  match Ipr.of_int (Word.mask regnum) with
  | None -> reserved_operand
  | Some r -> (
      let v = Ipr.write_value Ipr.Virtual r value in
      if v < 0 then reserved_operand
      else
        match r with
        | Ipr.KCALL -> kcall t vm v
        | _ ->
            (match r with
            | Ipr.KSP | Ipr.ESP | Ipr.SSP | Ipr.USP | Ipr.ISP ->
                vm.Vm.sps.(Ipr.to_int r) <- v
            | Ipr.P0BR ->
                vm.Vm.p0br <- v;
                if vm.Vm.mapen then
                  Shadow.activate_process (mmu t) vm
                    ~cache:t.cfg.shadow_cache_enabled
            | Ipr.P0LR ->
                vm.Vm.p0lr <- v;
                if vm.Vm.mapen then Shadow.install_mm_registers (mmu t) vm
            | Ipr.P1BR -> vm.Vm.p1br <- v
            | Ipr.P1LR ->
                vm.Vm.p1lr <- v;
                if vm.Vm.mapen then Shadow.install_mm_registers (mmu t) vm
            | Ipr.SBR ->
                vm.Vm.sbr <- v;
                Shadow.invalidate_all (mmu t) vm
            | Ipr.SLR ->
                vm.Vm.slr <- min v Layout.vm_s_limit_vpn;
                Shadow.invalidate_all (mmu t) vm
            | Ipr.PCBB -> vm.Vm.pcbb <- v
            | Ipr.SCBB -> vm.Vm.scbb <- v
            | Ipr.IPL -> vm.Vm.saved_vmpsl <- Psl.with_ipl vm.Vm.saved_vmpsl v
            | Ipr.SIRR -> vm.Vm.sisr <- vm.Vm.sisr lor (1 lsl v)
            | Ipr.SISR -> vm.Vm.sisr <- v
            | Ipr.MAPEN ->
                vm.Vm.mapen <- v = 1;
                if vm.Vm.mapen then
                  (* bind the guest's current process registers to a
                     shadow slot *)
                  Shadow.activate_process (mmu t) vm
                    ~cache:t.cfg.shadow_cache_enabled;
                t.installed_for <- -1
            | Ipr.TBIA -> Shadow.invalidate_all (mmu t) vm
            | Ipr.TBIS -> Shadow.invalidate_single (mmu t) vm v
            | Ipr.ICCS ->
                if v land 0x80 <> 0 then begin
                  vm.Vm.iccs <- vm.Vm.iccs land lnot 0x80;
                  Vm.retract_virq vm ~vector:Scb.interval_timer
                end;
                let was_on = vtimer_running vm in
                vm.Vm.iccs <- (vm.Vm.iccs land lnot 0x41) lor (v land 0x41);
                if vtimer_running vm && not was_on then begin
                  cancel_vtimer vm;
                  arm_vtimer t vm
                end
                else if was_on && not (vtimer_running vm) then cancel_vtimer vm
            | Ipr.NICR -> vm.Vm.nicr <- max 500 v
            | Ipr.RXCS ->
                vm.Vm.rxcs <- v land 0x40;
                if vm.Vm.console_in <> [] && vm.Vm.rxcs land 0x40 <> 0 then
                  Vm.post_virq vm ~level:Console.rx_ipl
                    ~vector:Scb.console_receive
            | Ipr.TXCS -> vm.Vm.txcs <- v land 0x40
            | Ipr.TXDB ->
                Buffer.add_char vm.Vm.console_out (Char.chr (v land 0xFF));
                if vm.Vm.txcs land 0x40 <> 0 then
                  Vm.post_virq vm ~level:Console.tx_ipl
                    ~vector:Scb.console_transmit
            | Ipr.IORESET ->
                vm.Vm.pending_virq <- [];
                vm.Vm.vdisk.Vm.vd_csr <- 0
            | _ -> (* TODR, RXDB: writes ignored *) ());
            Resume)

(* ------------------------------------------------------------------ *)
(* Emulation of the sensitive instructions (paper §4.2, §4.4)          *)

let emulate_rei t (vm : Vm.t) =
  charge t Cost.vmm_rei_emulate;
  vm.Vm.stats.Vm.rei_emulated <- vm.Vm.stats.Vm.rei_emulated + 1;
  let vp = vm.Vm.saved_vmpsl in
  let cur_slot = vstack_slot vm in
  let sp = vm.Vm.sps.(cur_slot) in
  let vmode = Psl.cur vp in
  let new_pc = guest_read_long t vm ~vmode sp in
  let new_psl = guest_read_long t vm ~vmode (Word.add sp 4) in
  (* self-virtualization is not supported: a VM may not enter a VM *)
  if not (Psl.rei_valid ~current:vp ~stacked:new_psl ~may_enter_vm:false)
  then reserved_operand
  else begin
    vm.Vm.sps.(cur_slot) <- Word.add sp 8;
    let vp = Psl.with_prv (Psl.with_cur vp (Psl.cur new_psl)) (Psl.prv new_psl) in
    vm.Vm.saved_vmpsl <-
      Psl.with_is (Psl.with_ipl vp (Psl.ipl new_psl)) (Psl.is new_psl);
    vm.Vm.saved_psl <- resume_psl vm new_psl;
    vm.Vm.saved_regs.(15) <- new_pc;
    vm.Vm.saved_regs.(14) <- vm.Vm.sps.(vstack_slot vm);
    Resume
  end

(* A CHM whose frame cannot be pushed reflects that fault to the VM. *)
let emulate_chm t (vm : Vm.t) (x : State.exit_record) target =
  charge t Cost.vmm_chm_emulate;
  vm.Vm.stats.Vm.chm_forwarded <- vm.Vm.stats.Vm.chm_forwarded + 1;
  let code =
    if x.State.x_noperands = 1 then Word.sext ~width:16 (op_value x 0) else 0
  in
  let cur = Psl.cur vm.Vm.saved_vmpsl in
  let vp = Psl.with_cur vm.Vm.saved_vmpsl (Mode.most_privileged target cur) in
  let vp = Psl.with_prv vp cur in
  let next_pc = Word.add vm.Vm.saved_regs.(15) x.State.x_length in
  let vector = Scb.chm_vector target in
  let entry = read_vm_scb_entry t vm vector in
  if entry < 0 then Halt (scb_unreachable vm vector)
  else
    match
      push_vm_frame t vm ~target_slot:(Psl.stack_slot vp) ~params:[ code ]
        ~pc:next_pc ~psl:(merged_saved_psl vm)
    with
    | Resume ->
        vm.Vm.saved_vmpsl <- vp;
        vm.Vm.saved_regs.(15) <- Word.logand entry (Word.lognot 3);
        vm.Vm.saved_psl <- resume_psl vm (Psl.with_fpd vm.Vm.saved_psl false);
        Resume
    | o -> o

(* Reads the whole PCB, and passes its memory-management registers
   through MTPR's rule, before it loads anything: a P0BR outside S space
   is a reserved operand that leaves the VM as it was, as on the bare
   machine. *)
let emulate_ldpctx t (vm : Vm.t) (x : State.exit_record) =
  charge t (Opcode.base_cycles Opcode.Ldpctx + (24 * Cost.vmm_guest_mem));
  let pa = Shadow.vm_phys_addr vm vm.Vm.pcbb ~len:Pcb.size in
  if pa < 0 then Halt ("LDPCTX: " ^ Shadow.out_of_range vm.Vm.pcbb)
  else
    let pcb =
      Array.init (Pcb.size / 4) (fun i ->
          Phys_mem.read_long (phys t) (pa + (4 * i)))
    in
    let long off = pcb.(off / 4) in
    let mm r off = Ipr.write_value Ipr.Virtual r (long off) in
    let p0br = mm Ipr.P0BR Pcb.p0br in
    if p0br < 0 then reserved_operand
    else begin
      for slot = 0 to 3 do
        vm.Vm.sps.(slot) <- long (Pcb.sp slot)
      done;
      for r = 0 to 13 do
        set_vm_reg t vm r (long (Pcb.reg r))
      done;
      vm.Vm.p0br <- p0br;
      vm.Vm.p0lr <- mm Ipr.P0LR Pcb.p0lr;
      vm.Vm.p1br <- mm Ipr.P1BR Pcb.p1br;
      vm.Vm.p1lr <- mm Ipr.P1LR Pcb.p1lr;
      if vm.Vm.mapen then
        Shadow.activate_process (mmu t) vm ~cache:t.cfg.shadow_cache_enabled;
      (* push the PCB's PC/PSL pair on the VM's kernel stack for the REI *)
      vm.Vm.saved_vmpsl <- Psl.with_is vm.Vm.saved_vmpsl false;
      match
        push_vm_frame t vm ~target_slot:0 ~params:[]
          ~pc:(long Pcb.pc) ~psl:(long Pcb.psl)
      with
      | Resume ->
          vm.Vm.saved_regs.(14) <- vm.Vm.sps.(0);
          vm.Vm.saved_psl <- resume_psl vm vm.Vm.saved_psl;
          completed t vm x Resume
      | Halt m -> Halt ("LDPCTX: " ^ m)
      | Reflect _ -> Halt "LDPCTX: kernel stack not valid"
    end

let emulate_svpctx t (vm : Vm.t) (x : State.exit_record) =
  charge t (Opcode.base_cycles Opcode.Svpctx + (20 * Cost.vmm_guest_mem));
  let pa = Shadow.vm_phys_addr vm vm.Vm.pcbb ~len:Pcb.size in
  if pa < 0 then Halt ("SVPCTX: " ^ Shadow.out_of_range vm.Vm.pcbb)
  else begin
    let cur_slot = vstack_slot vm in
    let sp = vm.Vm.sps.(cur_slot) in
    let vmode = Psl.cur vm.Vm.saved_vmpsl in
    let pc = guest_read_long t vm ~vmode sp in
    let psl = guest_read_long t vm ~vmode (Word.add sp 4) in
    vm.Vm.sps.(cur_slot) <- Word.add sp 8;
    let p = phys t in
    Phys_mem.write_long p (pa + Pcb.pc) pc;
    Phys_mem.write_long p (pa + Pcb.psl) psl;
    for slot = 0 to 3 do
      Phys_mem.write_long p (pa + Pcb.sp slot) vm.Vm.sps.(slot)
    done;
    for r = 0 to 13 do
      Phys_mem.write_long p (pa + Pcb.reg r) (vm_reg t vm r)
    done;
    vm.Vm.saved_vmpsl <- Psl.with_is vm.Vm.saved_vmpsl true;
    vm.Vm.saved_regs.(14) <- vm.Vm.sps.(4);
    vm.Vm.saved_psl <- resume_psl vm vm.Vm.saved_psl;
    completed t vm x Resume
  end

(* PROBE's software half: whether [va] is accessible in [mode] per the
   VM's own PTE, or the fault the VM takes.  Filling the shadow PTE on
   the way lets later PROBEs of the page take the microcode path. *)
let probe_page t (vm : Vm.t) ~write ~mode va =
  ignore (Shadow.fill (mmu t) vm ~prefill:0 va : Shadow.fill_result);
  charge t (2 * Cost.vmm_guest_mem);
  match Shadow.read_vm_pte (phys t) vm va with
  | Shadow.Walk_fault
      (Mmu.Access_violation { length_violation = true; ptbl_ref = false; _ })
    ->
      Ok false
  | Shadow.Walk_fault f -> Error f
  | Shadow.Walk_nxm m -> raise (Stop (Halt ("PROBE: " ^ m)))
  | Shadow.Pte_at { pte; _ } ->
      let prot = Protection.compress (Pte.prot pte) in
      Ok ((if write then Protection.can_write else Protection.can_read) prot mode)

let emulate_probe t (vm : Vm.t) (x : State.exit_record) ~write =
  vm.Vm.stats.Vm.probe_emulated <- vm.Vm.stats.Vm.probe_emulated + 1;
  if x.State.x_noperands <> 3 then Halt "malformed PROBE frame"
  else
    let requested = Mode.of_int (op_value x 0 land 3) in
    let mode = Mode.least_privileged (Psl.prv vm.Vm.saved_vmpsl) requested in
    let len = max 1 (op_value x 1 land 0xFFFF) in
    let first = probe_page t vm ~write ~mode (op_value x 2) in
    let last = probe_page t vm ~write ~mode (Word.add (op_value x 2) (len - 1)) in
    match (first, last) with
    | Error fault, _ | _, Error fault -> fault_reflection fault ~orig_write:write
    | Ok a, Ok b ->
        vm.Vm.saved_psl <-
          Psl.with_nzvc vm.Vm.saved_psl ~n:false ~z:(not (a && b)) ~v:false ~c:false;
        completed t vm x Resume

let emulate_mtpr t (vm : Vm.t) (x : State.exit_record) =
  if x.State.x_noperands <> 2 then Halt "malformed MTPR frame"
  else
    completed t vm x
      (virtual_mtpr t vm ~value:(op_value x 0) ~regnum:(op_value x 1))

let emulate_mfpr t (vm : Vm.t) (x : State.exit_record) =
  if x.State.x_noperands <> 2 then Halt "malformed MFPR frame"
  else
    let v = virtual_mfpr t vm (op_value x 0) in
    if v < 0 then reserved_operand else completed t vm x (write_result t vm x 1 v)

let emulate t (vm : Vm.t) (x : State.exit_record) =
  vm.Vm.stats.Vm.emulation_traps <- vm.Vm.stats.Vm.emulation_traps + 1;
  Vm.count_opcode vm.Vm.stats x.State.x_opcode;
  match x.State.x_opcode with
  | Opcode.Rei -> emulate_rei t vm
  | (Opcode.Chmk | Opcode.Chme | Opcode.Chms | Opcode.Chmu) as op ->
      emulate_chm t vm x (Option.get (Opcode.chm_target op))
  | Opcode.Mtpr -> emulate_mtpr t vm x
  | Opcode.Mfpr -> emulate_mfpr t vm x
  | Opcode.Ldpctx -> emulate_ldpctx t vm x
  | Opcode.Svpctx -> emulate_svpctx t vm x
  | Opcode.Halt -> Halt "guest HALT"
  | Opcode.Wait ->
      vm.Vm.run_state <- Vm.Idle_until (now t + Cost.wait_timeout_cycles);
      completed t vm x Resume
  | Opcode.Prober -> emulate_probe t vm x ~write:false
  | Opcode.Probew -> emulate_probe t vm x ~write:true
  | Opcode.Probevmr | Opcode.Probevmw ->
      (* self-virtualization unsupported: unimplemented instruction *)
      Reflect { vector = Scb.privileged_instruction; params = [] }
  | op ->
      Halt
        (Printf.sprintf "unexpected VM-emulation trap for %s" (Opcode.name op))

(* ------------------------------------------------------------------ *)
(* Memory-management event service                                     *)

(* Emulated memory-mapped I/O (paper §4.4.3's expensive baseline): the
   VMM decodes the faulting instruction in software and interprets the
   device register access. *)
let vdisk_read (vm : Vm.t) offset =
  match offset land lnot 3 with
  | 0 -> vm.Vm.vdisk.Vm.vd_csr
  | 4 -> vm.Vm.vdisk.Vm.vd_block
  | 8 -> vm.Vm.vdisk.Vm.vd_addr
  | _ -> 0

(* The CSR bits follow the real disk's ({!Disk}): a refused transfer
   latches ERROR until software writes DONE. *)
let vdisk_write t (vm : Vm.t) offset v =
  let d = vm.Vm.vdisk in
  match offset land lnot 3 with
  | 0 ->
      if v land Disk.bit_done <> 0 then begin
        d.Vm.vd_csr <- d.Vm.vd_csr land lnot (Disk.bit_done lor Disk.bit_error);
        Vm.retract_virq vm ~vector:Scb.disk
      end;
      d.Vm.vd_csr <- (d.Vm.vd_csr land lnot Disk.bit_ie) lor (v land Disk.bit_ie);
      if v land 3 = 1 || v land 3 = 2 then begin
        d.Vm.vd_csr <- d.Vm.vd_csr lor Disk.bit_busy;
        start_vm_disk_io t vm ~write:(v land 3 = 2) ~vm_block:d.Vm.vd_block
          ~vm_buf:d.Vm.vd_addr ~on_done:(fun status ->
            d.Vm.vd_csr <-
              (d.Vm.vd_csr land lnot Disk.bit_busy)
              lor Disk.bit_done
              lor if status = 1 then 0 else Disk.bit_error;
            if d.Vm.vd_csr land Disk.bit_ie <> 0 then begin
              Vm.post_virq vm ~level:Disk.ipl ~vector:Scb.disk;
              doorbell t
            end)
      end
  | 4 -> d.Vm.vd_block <- Word.mask v
  | 8 -> d.Vm.vd_addr <- Word.mask v
  | _ -> ()

let mmio_software_decode_cost = 60

(* Interpret the instruction at the VM's PC, which references VM I/O
   space.  Only the MOVL forms device drivers actually use are
   supported; anything else halts the VM.  The CPU's decoder is reused
   by temporarily restoring the guest context. *)
let emulate_mmio t (vm : Vm.t) ~va ~io_vmpa =
  vm.Vm.stats.Vm.mmio_trap_count <- vm.Vm.stats.Vm.mmio_trap_count + 1;
  charge t mmio_software_decode_cost;
  let s = st t in
  ensure_installed t vm;
  let saved_psl_real = s.State.psl in
  let saved_sp = State.sp s in
  (* While decoding, alias the I/O page to a scratch frame so the
     decoder's operand prefetch does not fault; the emulation below never
     uses the prefetched value for the device side. *)
  let io_spa = Shadow.shadow_pte_addr vm va in
  let saved_spte =
    Option.map (fun pa -> Phys_mem.read_long (phys t) pa) io_spa
  in
  (match io_spa with
  | Some pa ->
      Phys_mem.write_long (phys t) pa
        (Pte.make ~valid:true ~modify:true ~prot:Protection.UW
           ~pfn:vm.Vm.shadow_s_pfn ());
      Mmu.tbis (mmu t) va
  | None -> ());
  (* restore guest context for decoding *)
  s.State.psl <- Psl.with_vm vm.Vm.saved_psl false;
  State.set_sp s vm.Vm.saved_regs.(14);
  State.set_pc s vm.Vm.saved_regs.(15);
  let restore () =
    s.State.psl <- saved_psl_real;
    State.set_sp s saved_sp;
    match (io_spa, saved_spte) with
    | Some pa, Some spte ->
        Phys_mem.write_long (phys t) pa spte;
        Mmu.tbis (mmu t) va
    | _ -> ()
  in
  (* an emulation that gives up leaves the VM's registers as the exit
     found them: back out the operand side effects the decode applied
     before the VM is halted (and its registers written back) *)
  let abandon d reason =
    Decode.undo_side_effects s d;
    restore ();
    Halt reason
  in
  let io_offset = io_vmpa - Phys_mem.io_space_base in
  match Decode.decode s with
  | exception State.Fault _ ->
      restore ();
      Halt "MMIO emulation: cannot decode instruction"
  | d -> (
      let finish () =
        (* changes made through Decode land in the live registers, where
           R0–R13 stay (the VM is resident) *)
        vm.Vm.sps.(vstack_slot vm) <- State.sp s;
        vm.Vm.saved_regs.(14) <- State.sp s;
        vm.Vm.saved_regs.(15) <- d.Decode.next_pc;
        restore ();
        Resume
      in
      let is_io (o : Decode.operand) =
        match o.Decode.loc with
        | Decode.Mem va -> (
            match Shadow.read_vm_pte (phys t) vm va with
            | Shadow.Pte_at { pte; _ } ->
                Pte.valid pte
                && (Pte.pfn pte * Addr.page_size) + Addr.offset va
                   >= Phys_mem.io_space_base
            | Shadow.Walk_fault _ | Shadow.Walk_nxm _ -> false)
        | Decode.Reg _ | Decode.Imm _ -> false
      in
      match (d.Decode.opcode, d.Decode.operands) with
      | Opcode.Movl, [ src; dst ] when is_io src -> (
          let v = vdisk_read vm io_offset in
          match Decode.write_value s dst v with
          | exception State.Fault _ ->
              abandon d "MMIO emulation: destination fault"
          | () -> finish ())
      | Opcode.Movl, [ src; dst ] when is_io dst -> (
          match Decode.read_value s src with
          | exception State.Fault _ -> abandon d "MMIO emulation: source fault"
          | v ->
              vdisk_write t vm io_offset v;
              finish ())
      | (Opcode.Tstl | Opcode.Bisl2), _ ->
          abandon d "MMIO emulation: unsupported read-modify-write"
      | _ ->
          abandon d
            (Printf.sprintf "MMIO emulation: unsupported opcode %s"
               (Opcode.name d.Decode.opcode)))

(* the faulting VA and the write flag of a memory-management frame *)
let fault_va (x : State.exit_record) =
  if x.State.x_nparams = 2 then x.State.x_params.(1) else 0

let param_write (x : State.exit_record) =
  x.State.x_nparams > 0 && x.State.x_params.(0) land 4 <> 0

let handle_tnv t (vm : Vm.t) (x : State.exit_record) =
  let va = fault_va x in
  match Shadow.fill (mmu t) vm ~prefill:t.cfg.prefill_group
              ~ro_scheme:t.cfg.ro_shadow_scheme va with
  | Shadow.Filled -> Resume (* retry at the same PC *)
  | Shadow.Reflect fault -> fault_reflection fault ~orig_write:(param_write x)
  | Shadow.Io_ref io_vmpa ->
      if vm.Vm.io_mode = Vm.Mmio_io then emulate_mmio t vm ~va ~io_vmpa
      else Halt "VM mapped I/O space in KCALL mode"
  | Shadow.Halt_nxm m -> Halt m

let handle_acv t (vm : Vm.t) (x : State.exit_record) =
  let param = if x.State.x_nparams = 2 then x.State.x_params.(0) else 0 in
  let va = fault_va x in
  let write = param land 4 <> 0 in
  let length = param land 1 <> 0 in
  let violation ~length_violation ~ptbl_ref =
    fault_reflection ~orig_write:write
      (Mmu.Access_violation { va; length_violation; ptbl_ref; write })
  in
  if length then
    (* beyond the real (clamped) length registers: the VM sees its own
       length violation, since the VMM's limit is architected (paper §5) *)
    violation ~length_violation:true ~ptbl_ref:(param land 2 <> 0)
  else
    (* protection violation: distinguish VM I/O space (MMIO emulation)
       from a genuine VM-level protection fault *)
    match Shadow.read_vm_pte (phys t) vm va with
    | Shadow.Pte_at { pte; _ }
      when Pte.valid pte && Pte.pfn pte >= Shadow.vm_io_base_pfn
           && vm.Vm.io_mode = Vm.Mmio_io ->
        emulate_mmio t vm ~va
          ~io_vmpa:((Pte.pfn pte * Addr.page_size) + Addr.offset va)
    | Shadow.Pte_at { pte; _ }
      when t.cfg.ro_shadow_scheme && write && Pte.valid pte
           && (not (Pte.modify pte))
           && Protection.can_write
                (Protection.compress (Pte.prot pte))
                (Psl.cur x.State.x_psl) -> (
        (* read-only-shadow scheme: first write to the page *)
        match Shadow.upgrade_ro (mmu t) vm va with
        | Ok () -> Resume (* retry *)
        | Error m -> Halt m)
    | Shadow.Walk_nxm m -> Halt m
    | Shadow.Pte_at _ | Shadow.Walk_fault _ ->
        violation ~length_violation:false ~ptbl_ref:false

let handle_modify t (vm : Vm.t) (x : State.exit_record) =
  match Shadow.set_modify (mmu t) vm (fault_va x) with
  | Ok () -> Resume (* retry *)
  | Error _ ->
      (* shadow PTE invalid: treat as TNV (fill first) *)
      handle_tnv t vm x

(* ------------------------------------------------------------------ *)
(* Host (real) interrupts                                              *)

let ack_real_timer t =
  (* dismiss the device request and charge the MTPR the VMM issues *)
  charge t (Opcode.base_cycles Opcode.Mtpr);
  ignore ((st t).State.ipr_write_hook Ipr.ICCS 0xC1)

let handle_host_interrupt t (x : State.exit_record) =
  if x.State.x_vector = Scb.interval_timer then begin
    ack_real_timer t;
    t.slice_expired <- true
  end
  (* doorbell software interrupts need no action: scheduling below picks
     up whatever became deliverable; other device vectors are spurious
     under the VMM and are simply dismissed *)

(* ------------------------------------------------------------------ *)
(* The kernel agent                                                    *)

(* the frame's fault parameters as a list, for reflection *)
let fault_params (x : State.exit_record) =
  List.init x.State.x_nparams (fun i -> x.State.x_params.(i))

(* The handler for an exception the VM raised. *)
let handle_exit t vm (x : State.exit_record) =
  match x.State.x_vector with
  | v when v = Scb.vm_emulation -> emulate t vm x
  | v when v = Scb.translation_not_valid -> handle_tnv t vm x
  | v when v = Scb.access_violation -> handle_acv t vm x
  | v when v = Scb.modify_fault -> handle_modify t vm x
  | v
    when v = Scb.privileged_instruction || v = Scb.reserved_operand
         || v = Scb.reserved_addressing_mode || v = Scb.breakpoint
         || v = Scb.arithmetic || v = Scb.machine_check ->
      (* the VM's own exception, with the frame's parameters *)
      Reflect { vector = v; params = fault_params x }
  | v when v = Scb.chmk || v = Scb.chme || v = Scb.chms || v = Scb.chmu ->
      (* CHM traps are turned into VM-emulation traps by the microcode;
         reaching here means a bug *)
      Halt "unexpected CHM trap from VM"
  | v -> Halt (Printf.sprintf "unhandled vector 0x%x" v)

(* The one boundary between the handlers and the VM: run the handler for
   the exit and apply its outcome.  A guest-memory read that could not
   complete ends the handler with the outcome it carries, caught here
   and nowhere else. *)
let serve t vm x =
  apply t vm (match handle_exit t vm x with o -> o | exception Stop o -> o)

let dispatch t (x : State.exit_record) =
  let s = st t in
  Cycles.set_in_monitor (clock t) true;
  charge t Cost.vmm_dispatch;
  if t.cfg.separate_vmm_space then begin
    charge t Cost.vmm_address_space_switch;
    Mmu.tbia (mmu t)
  end;
  (* consume the trap frame the microcode pushed *)
  State.set_sp s (Word.add (State.sp s) (4 * x.State.x_frame_words));
  (if x.State.x_from_vm then begin
     match t.running with
     | None -> () (* cannot happen: PSL<VM> only set while a VM runs *)
     | Some vm ->
         sync_vm_on_exit t vm x;
         if x.State.x_interrupt then handle_host_interrupt t x
         else begin
           serve t vm x;
           (* A machine check raised while a VM ran — its page was
              poisoned (injected parity) or its shadow map reached
              nonexistent memory — is reflected through the VM's SCB, so
              the guest OS sees the frame a real VAX would push.  A
              guest whose SCB or stack cannot take the frame is halted:
              the fault is absorbed with the VM. *)
           if x.State.x_vector = Scb.machine_check then
             let inject = (st t).State.inject in
             match vm.Vm.run_state with
             | Vm.Halted_vm _ -> Vax_fault.Engine.note_mc_absorbed inject
             | _ -> Vax_fault.Engine.note_mc_reflected inject
         end
   end
   else if
     (not x.State.x_interrupt) && x.State.x_vector = Scb.machine_check
   then
     (* the monitor's own memory reference machine-checked; there is no
        more privileged software to reflect to — halt cleanly instead
        of silently dismissing it as a spurious host event *)
     State.double_fault_halt s "machine check in the monitor"
   else handle_host_interrupt t x);
  schedule t;
  if t.cfg.separate_vmm_space then charge t Cost.vmm_address_space_switch;
  Cycles.set_in_monitor (clock t) false

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(config = default_config) (m : Machine.t) =
  if m.Machine.cpu.State.variant <> Variant.Virtualizing then
    invalid_arg "Vmm.create: machine must use the Virtualizing variant";
  let alloc =
    Layout.allocator ~total_pages:(Phys_mem.pages m.Machine.phys)
      ~reserved_low:16
  in
  let shared_stack_pfn =
    Layout.alloc_vmm_pages alloc Layout.vmm_stack_pages
  in
  let t =
    {
      m;
      cfg = config;
      alloc;
      shared_stack_pfn;
      vm_order = [||];
      running = None;
      installed_for = -1;
      slice_expired = false;
      next_vid = 0;
      next_disk_block = 0;
    }
  in
  m.Machine.cpu.State.agent <- Some (dispatch t);
  m.Machine.cpu.State.ipl_assist <- config.ipl_assist;
  (* program the real interval timer for time slicing *)
  ignore
    (m.Machine.cpu.State.ipr_write_hook Ipr.NICR config.time_slice_cycles);
  ignore (m.Machine.cpu.State.ipr_write_hook Ipr.ICCS 0x41);
  t

let add_vm t ~name ~memory_pages ~disk_blocks ?io_mode ~images ~start_pc () =
  let io_mode = Option.value ~default:t.cfg.default_io_mode io_mode in
  let base_pfn = Layout.alloc_vm_block t.alloc memory_pages in
  let nslots = max 1 t.cfg.shadow_cache_slots in
  let shadow_s_pfn =
    Layout.alloc_vmm_pages t.alloc
      (Layout.shadow_s_table_pages ~nslots ~memsize:memory_pages)
  in
  let slots =
    Array.init nslots (fun i ->
        {
          Vm.slot_index = i;
          sp0_pfn = Layout.alloc_vmm_pages t.alloc Layout.shadow_p0_pages;
          sp1_pfn = Layout.alloc_vmm_pages t.alloc Layout.shadow_p1_pages;
          sp0_va = Addr.of_region_vpn Addr.S (Layout.slot_p0_vpn i);
          sp1_va = Addr.of_region_vpn Addr.S (Layout.slot_p1_vpn i);
          key = None;
          sp0_len = 0;
          sp1_lr = Layout.p1_first_vpn;
          last_used = 0;
        })
  in
  let identity_pfn =
    Layout.alloc_vmm_pages t.alloc (Layout.pages_for_ptes memory_pages)
  in
  let disk_base = t.next_disk_block in
  t.next_disk_block <- t.next_disk_block + disk_blocks;
  if t.next_disk_block > Disk.blocks t.m.Machine.disk then
    failwith "add_vm: disk exhausted";
  let vm =
    {
      Vm.name;
      vid = t.next_vid;
      base_pfn;
      memsize = memory_pages;
      disk_base;
      disk_blocks;
      io_mode;
      run_state = Vm.Runnable;
      saved_regs = Array.make 16 0;
      saved_psl = 0;
      saved_vmpsl = Psl.initial;
      sps = Array.make 5 (memory_pages * Addr.page_size);
      scbb = 0;
      pcbb = 0;
      sisr = 0;
      mapen = false;
      p0br = 0;
      p0lr = 0;
      p1br = 0;
      p1lr = 0;
      sbr = 0;
      slr = 0;
      pending_virq = [];
      iccs = 0;
      nicr = 10_000;
      timer_gen = 0;
      uptime_ticks = 0;
      console_out = Buffer.create 256;
      console_in = [];
      rxcs = 0;
      txcs = 0;
      vdisk = { Vm.vd_csr = 0; vd_block = 0; vd_addr = 0 };
      shadow_s_pfn;
      shared_stack_pfn = t.shared_stack_pfn;
      identity_pfn;
      slots;
      active_slot = 0;
      lru_clock = 0;
      guest_instructions = 0;
      instr_mark = 0;
      stats = Vm.fresh_stats ();
    }
  in
  t.next_vid <- t.next_vid + 1;
  (* per-VM gauges in the machine's metrics registry *)
  Vax_obs.Metrics.register_group t.m.Machine.metrics ("vm." ^ name) (fun () ->
      let s = vm.Vm.stats in
      [
        ("guest_instructions", vm.Vm.guest_instructions);
        ("emulation_traps", s.Vm.emulation_traps);
        ("shadow_fills", s.Vm.shadow_fills);
        ("shadow_invalidations", s.Vm.shadow_invalidations);
        ("modify_faults", s.Vm.modify_faults);
        ("reflected_faults", s.Vm.reflected_faults);
        ("chm_forwarded", s.Vm.chm_forwarded);
        ("rei_emulated", s.Vm.rei_emulated);
        ("virq_delivered", s.Vm.virq_delivered);
        ("io_requests", s.Vm.io_requests);
        ("mmio_traps", s.Vm.mmio_trap_count);
        ("probe_emulated", s.Vm.probe_emulated);
        ("context_switches", s.Vm.context_switches);
        ("shadow_cache_hits", s.Vm.shadow_cache_hits);
        ("shadow_cache_misses", s.Vm.shadow_cache_misses);
      ]);
  Shadow.init_vm_tables (phys t) vm;
  List.iter
    (fun (vmpa, data) ->
      let pa = Shadow.vm_phys_addr vm vmpa ~len:(Bytes.length data) in
      if pa < 0 then invalid_arg ("Vmm.add_vm: image at " ^ Shadow.out_of_range vmpa);
      Phys_mem.blit_in (phys t) pa data)
    images;
  vm.Vm.saved_regs.(15) <- start_pc;
  (* power-on virtual PSL: kernel, interrupt stack, IPL 31 *)
  vm.Vm.saved_vmpsl <- Psl.initial;
  vm.Vm.saved_psl <- resume_psl vm 0;
  t.vm_order <- Array.append t.vm_order [| vm |];
  vm

let run t ?max_cycles () =
  Cycles.set_in_monitor (clock t) true;
  schedule t;
  Cycles.set_in_monitor (clock t) false;
  match Machine.run t.m ?max_cycles () with
  | outcome ->
      write_back_running t;
      outcome
  | exception e ->
      write_back_running t;
      raise e

let pp_vm_stats ppf (vm : Vm.t) =
  let s = vm.Vm.stats in
  Format.fprintf ppf
    "@[<v>VM %s: state=%s@ instructions=%d emulation_traps=%d \
     shadow_fills=%d modify_faults=%d reflected=%d@ chm=%d rei=%d virq=%d \
     io=%d mmio=%d probes=%d switches=%d cache(h/m)=%d/%d@]"
    vm.Vm.name
    (match vm.Vm.run_state with
    | Vm.Runnable -> "runnable"
    | Vm.Idle_until _ -> "idle"
    | Vm.Halted_vm r -> "halted: " ^ r)
    vm.Vm.guest_instructions s.Vm.emulation_traps s.Vm.shadow_fills
    s.Vm.modify_faults s.Vm.reflected_faults s.Vm.chm_forwarded
    s.Vm.rei_emulated s.Vm.virq_delivered s.Vm.io_requests s.Vm.mmio_trap_count
    s.Vm.probe_emulated s.Vm.context_switches s.Vm.shadow_cache_hits
    s.Vm.shadow_cache_misses
