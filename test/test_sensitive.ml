(* Popek and Goldberg's equivalence property at its finest grain: one
   sensitive instruction, run on the bare standard VAX and again as a
   guest under the VMM, leaves the same guest-visible state.  Compared:
   R0–R13, the five stack pointers and the words above each, the PCB
   and a scratch window, the PSL as MOVPSL shows it, and the exception
   taken with its vector and parameters.

   Both runs load one image into 64 pages of memory, mapping off unless
   the case turns it on:
   - an SCB at 0 that sends vector v, on the kernel stack, to a handler
     at 0x1000 + v doing MOVPSL R11 and HALT;
   - a prologue at 0x200 that sets the stack pointers and R0–R9, then
     REIs into the case's PSL at the body;
   - the body, then BPT, which marks that the body completed.
   A handler entered outside kernel mode faults on its HALT into the
   privileged-instruction handler, so the final PC names the last vector
   taken and the frames left on the stacks name the rest.

   The intended divergences are listed in DESIGN.md §6; the cases below
   excuse each where it applies, and say why. *)

open Vax_arch
open Vax_cpu
open Vax_dev
open Vax_vmm
module Asm = Vax_asm.Asm
module Phys_mem = Vax_mem.Phys_mem

let memory_pages = 64
let memory_bytes = memory_pages * Addr.page_size
let handlers = 0x1000

(* KSP, ESP, SSP, USP, ISP *)
let stack_tops = [| 0x3000; 0x3400; 0x3800; 0x3C00; 0x2C00 |]
let pcb = 0x4000
let scratch = 0x5000

type case = {
  what : string;  (** the body, for the failure report *)
  psl : Word.t;  (** the PSL the body runs under *)
  regs : Word.t array;  (** R0–R9 *)
  mapped : Word.t option;
      (** memory management on, with this PTE for S page 0 (see
          [Conformance.emit_spt_and_mapen]) *)
  body : Asm.t -> unit;
  data : (int * Word.t array) list;  (** longwords stored before the run *)
  excuse_regs : int list;  (** registers a documented divergence may differ in *)
}

let longs a =
  let b = Bytes.create (4 * Array.length a) in
  Array.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)) a;
  b

(* MOVPSL R11; HALT; NOP per vector *)
let handler_code = Bytes.init 512 (fun i -> "\xDC\x5B\x00\x01".[i land 3])
let scb = longs (Array.init 128 (fun i -> handlers + (4 * i)))

let image c =
  let a = Asm.create ~origin:0x200 in
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  List.iteri
    (fun slot r ->
      Asm.ins a Opcode.Mtpr [ Asm.Imm stack_tops.(slot); Asm.Imm (Ipr.to_int r) ])
    Ipr.[ KSP; ESP; SSP; USP ];
  Asm.ins a Opcode.Movl [ Asm.Imm stack_tops.(4); Asm.R Asm.sp ];
  Option.iter
    (fun pte -> Vax_workloads.Conformance.emit_spt_and_mapen a ~test_pte:pte)
    c.mapped;
  Array.iteri (fun r v -> Asm.ins a Opcode.Movl [ Asm.Imm v; Asm.R r ]) c.regs;
  Asm.ins a Opcode.Pushl [ Asm.Imm c.psl ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "body"; Asm.Predec Asm.sp ];
  Asm.ins a Opcode.Rei [];
  Asm.label a "body";
  c.body a;
  Asm.ins a Opcode.Bpt [];
  let img = Asm.assemble a in
  [ (0, scb); (handlers, handler_code); (0x200, img.Asm.code) ]
  @ List.map (fun (pa, ls) -> (pa, longs ls)) c.data

type snapshot = {
  stop : string;
      (** "HALT", "abnormal" (a double fault, or the VM halted) or
          "running" *)
  why : string;  (** the reason for an abnormal stop, reported but not compared *)
  pc : Word.t;
  regs : Word.t list;
  sps : Word.t list;
  stacks : Word.t list list;
  mem : Word.t list;
}

let snapshot ~stop ~why ~pc ~reg ~sp ~read =
  let read a = if a >= 0 && a + 4 <= memory_bytes then read a else -1 in
  let sps = List.init 5 sp in
  {
    stop;
    why;
    pc;
    regs = List.init 14 reg;
    sps;
    stacks = List.map (fun s -> List.init 6 (fun i -> read (s + (4 * i)))) sps;
    mem =
      List.init 24 (fun i -> read (pcb + (4 * i)))
      @ List.init 8 (fun i -> read (scratch + (4 * i)));
  }

let run_bare c =
  let m = Machine.create ~variant:Variant.Standard ~memory_pages () in
  List.iter (fun (pa, b) -> Machine.load m pa b) (image c);
  Machine.start m ~pc:0x200 ~sp:stack_tops.(4);
  let outcome = Machine.run m ~max_cycles:200_000 () in
  let st = m.Machine.cpu in
  snapshot
    ~stop:
      (match outcome with
      | Machine.Halted -> "HALT"
      | Machine.Cycle_limit -> "running"
      | _ -> "abnormal")
    ~why:(Option.value ~default:"" st.State.double_fault)
    ~pc:(State.pc st) ~reg:(State.reg st) ~sp:(State.read_sp_of st)
    ~read:(Phys_mem.read_long m.Machine.phys)

let run_vm c =
  let m = Machine.create ~variant:Variant.Virtualizing ~memory_pages:1024 () in
  let vmm = Vmm.create m in
  let vm =
    Vmm.add_vm vmm ~name:"one" ~memory_pages ~disk_blocks:8 ~images:(image c)
      ~start_pc:0x200 ()
  in
  ignore (Vmm.run vmm ~max_cycles:2_000_000 () : Machine.outcome);
  snapshot
    ~stop:
      (match vm.Vm.run_state with
      | Vm.Halted_vm "guest HALT" -> "HALT"
      | Vm.Halted_vm _ -> "abnormal"
      | _ -> "running")
    ~why:(match vm.Vm.run_state with Vm.Halted_vm r -> r | _ -> "")
    ~pc:vm.Vm.saved_regs.(15)
    ~reg:(fun r -> vm.Vm.saved_regs.(r))
    ~sp:(fun s -> vm.Vm.sps.(s))
    ~read:(Vmm.vm_phys_read_long vmm vm)

let pp_list = Fmt.(list ~sep:(any " ") (fun ppf -> pf ppf "%x"))

let pp_snapshot ppf s =
  Fmt.pf ppf "@[<v>stop %s (%s) pc %08x@ regs %a@ sps %a@ stacks %a@ mem %a@]"
    s.stop s.why s.pc pp_list s.regs pp_list s.sps
    Fmt.(list ~sep:(any " | ") pp_list)
    s.stacks pp_list s.mem

(* The bare microcode takes every interrupt on the interrupt stack; the
   VMM takes a virtual interrupt on the stack its SCB entry names, which
   here is the kernel stack.  The two rules are not yet one (DESIGN.md
   §6): when the bare run ends in an interrupt's handler, the stacks and
   the handler's PSL (R11) are not compared. *)
let interrupt_taken b = b.stop = "HALT" && b.pc - handlers - 2 >= Scb.software_interrupt 1

(* Equal, except in the registers a documented divergence excuses; two
   runs that stop without reaching HALT are compared by how they
   stopped. *)
let equivalent c b v =
  let excused = if interrupt_taken b then 11 :: c.excuse_regs else c.excuse_regs in
  b.stop = v.stop
  && (b.stop <> "HALT"
     || b.pc = v.pc && b.mem = v.mem
        && (interrupt_taken b || (b.sps = v.sps && b.stacks = v.stacks))
        && List.for_all2
             (fun (r, x) y -> List.mem r excused || x = y)
             (List.mapi (fun r x -> (r, x)) b.regs)
             v.regs)

let check c =
  let b = run_bare c and v = run_vm c in
  equivalent c b v
  || QCheck.Test.fail_reportf "@[<v>bare:@ %a@ vm:@ %a@]" pp_snapshot b
       pp_snapshot v

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

open QCheck.Gen

let word = map (fun x -> x land 0xFFFF_FFFF) int
let mode = map Mode.of_int (int_bound 3)

(* A PSL the prologue's REI accepts from kernel mode on the interrupt
   stack at IPL 31, in [cur] when given. *)
let gen_psl ?cur () =
  let* cur = match cur with Some m -> return m | None -> mode in
  let* prv = map Mode.of_int (int_range (Mode.to_int cur) 3) in
  let kernel = cur = Mode.Kernel in
  let* is = if kernel then bool else return false in
  let* ipl = if kernel then int_bound 31 else return 0 in
  let* low = int_bound 0x3F (* C V Z N T IV *) in
  return
    (Psl.with_is (Psl.with_ipl (Psl.with_prv (Psl.with_cur low cur) prv) ipl) is)

let gen_regs = array_repeat 10 word

let case ?(regs = [||]) ?(data = []) ?(excuse_regs = []) ?mapped what psl body =
  let* r = gen_regs in
  Array.blit regs 0 r 0 (Array.length regs);
  return { what; psl; regs = r; mapped; body; data; excuse_regs }

let print c =
  Printf.sprintf "%s under psl %08x, regs [%s]%s" c.what c.psl
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%x") c.regs)))
    (String.concat ""
       (List.map
          (fun (pa, ls) ->
            Printf.sprintf " data@%x [%s]" pa
              (String.concat " "
                 (Array.to_list (Array.map (Printf.sprintf "%x") ls))))
          c.data))

let property ~count name gen =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 29 |])
    (QCheck.Test.make ~count ~name (QCheck.make ~print gen) check)

(* ------------------------------------------------------------------ *)
(* REI                                                                 *)

(* Half the stacked PSLs are drawn to pass REI's checks under
   [current], half with any mode, PRV, IS and IPL; either kind sometimes
   carries PSL<VM>, FPD or a must-be-zero bit. *)
let gen_stacked ~current =
  let c = Mode.to_int (Psl.cur current) in
  let* valid = bool in
  let* cur = if valid then int_range c 3 else int_bound 3 in
  let* prv = if valid then int_range cur 3 else int_bound 3 in
  let* is = if valid && not (cur = 0 && Psl.is current) then return false else bool in
  let* ipl =
    if not valid then int_bound 31
    else if cur = 0 then int_bound (Psl.ipl current)
    else return 0
  in
  let* low = int_bound 0x3F in
  let* extra =
    frequency
      [
        (8, return 0);
        (1, return Psl.vm_bit_mask);
        (1, return (1 lsl 27));
        (1, map (fun b -> 1 lsl b) (oneofl [ 6; 8; 15; 21; 28; 30; 31 ]));
      ]
  in
  let p = Psl.with_prv (Psl.with_cur low (Mode.of_int cur)) (Mode.of_int prv) in
  return (Psl.with_is (Psl.with_ipl p ipl) is lor extra)

let rei =
  property ~count:300 "REI over current and stacked PSLs"
    (let* current = gen_psl () in
     let* stacked = gen_stacked ~current in
     case (Printf.sprintf "REI of %08x" stacked) current (fun a ->
         Asm.ins a Opcode.Pushl [ Asm.Imm stacked ];
         Asm.ins a Opcode.Moval [ Asm.Abs_label "landing"; Asm.Predec Asm.sp ];
         Asm.ins a Opcode.Rei [];
         Asm.label a "landing"))

(* ------------------------------------------------------------------ *)
(* CHM                                                                 *)

let chm =
  property ~count:200 "CHMx from each mode"
    (let* cur = mode in
     let* psl = gen_psl ~cur () in
     let* op = oneofl Opcode.[ Chmk; Chme; Chms; Chmu ] in
     let* code = int_bound 0xFFFF in
     case (Printf.sprintf "%s #%x" (Opcode.name op) code) psl (fun a ->
         Asm.ins a op [ Asm.Imm code ]))

(* ------------------------------------------------------------------ *)
(* MTPR and MFPR                                                       *)

let unassigned = [ 5; 6; 7; 14; 15; 21; 23; 28; 40; 63; 100; 146; 164; 255; 0x1234 ]
let gen_regnum = oneof [ map Ipr.to_int (oneofl Ipr.all); oneofl unassigned ]

let gen_value =
  oneof
    [
      word;
      int_bound 63;
      map (fun o -> 0x8000_0000 + o) (int_bound 0xFFFF);
      map (fun s -> stack_tops.(s) - 0x40) (int_bound 4);
    ]

(* The virtual interval clock is the VMM's own model (paper §5, "Time";
   DESIGN.md §6): ICR reads back its reload period and TODR the
   simulated time, which includes the monitor's. *)
let clock_read r =
  match Ipr.of_int r with Some (Ipr.ICR | Ipr.TODR) -> true | _ -> false

(* The VMM bounds a VM's system page table, so SLR reads back clamped
   to that bound (paper §5: the virtual VAX's limits are its own). *)
let clamped r = Ipr.of_int r = Some Ipr.SLR

(* Registers that exist only on the virtual VAX, and SID, which names
   it, are the virtual VAX's by design (paper §5). *)
let virtual_vax r =
  match Ipr.of_int r with
  | Some (Ipr.MEMSIZE | Ipr.KCALL | Ipr.IORESET | Ipr.UPTIME | Ipr.SID) -> true
  | _ -> false

let mtpr_mfpr =
  property ~count:400 "MTPR then MFPR over every IPR"
    (let* psl = gen_psl ~cur:Mode.Kernel () in
     let* regnum = gen_regnum and* value = gen_value in
     if virtual_vax regnum then case "nothing (a virtual-VAX register)" psl ignore
     else
       case ~regs:[| 0; value; regnum |]
         ~excuse_regs:(if clock_read regnum || clamped regnum then [ 3 ] else [])
         "MTPR R1, R2; MFPR R2, R3" psl
         (fun a ->
           Asm.ins a Opcode.Mtpr [ Asm.R 1; Asm.R 2 ];
           Asm.ins a Opcode.Mfpr [ Asm.R 2; Asm.R 3 ]))

let mfpr =
  property ~count:200 "MFPR over every IPR"
    (let* psl = gen_psl ~cur:Mode.Kernel () in
     let* regnum = gen_regnum in
     if virtual_vax regnum then case "nothing (a virtual-VAX register)" psl ignore
     else
       case ~regs:[| 0; 0; regnum |]
         ~excuse_regs:(if clock_read regnum then [ 3 ] else [])
         "MFPR R2, R3" psl
         (fun a -> Asm.ins a Opcode.Mfpr [ Asm.R 2; Asm.R 3 ]))

(* ------------------------------------------------------------------ *)
(* LDPCTX and SVPCTX                                                   *)

let set_pcbb a = Asm.ins a Opcode.Mtpr [ Asm.Imm pcb; Asm.Imm (Ipr.to_int Ipr.PCBB) ]

let gen_pcb =
  let* sps = array_repeat 4 (int_bound 16) in
  let* regs = array_repeat 16 word in
  let* p0br = oneof [ map (fun o -> 0x8000_0000 + (4 * o)) (int_bound 0xFFFF); word ] in
  let* lengths = array_repeat 3 (oneof [ int_bound 0x100; word ]) in
  return
    (Array.concat
       [
         Array.mapi (fun slot d -> stack_tops.(slot) - (4 * d)) sps;
         regs;
         [| p0br; lengths.(0); lengths.(1); lengths.(2) |];
       ])

let ldpctx =
  property ~count:200 "LDPCTX over random PCBs"
    (let* psl = gen_psl ~cur:Mode.Kernel () and* image = gen_pcb in
     case ~data:[ (pcb, image) ] "LDPCTX" psl (fun a ->
         set_pcbb a;
         Asm.ins a Opcode.Ldpctx []))

let svpctx =
  property ~count:100 "SVPCTX over random PCBs"
    (let* psl = gen_psl ~cur:Mode.Kernel () and* image = gen_pcb in
     let* pc = word and* saved = word in
     case ~data:[ (pcb, image) ]
       (Printf.sprintf "SVPCTX of PC %08x PSL %08x" pc saved)
       psl
       (fun a ->
         set_pcbb a;
         Asm.ins a Opcode.Pushl [ Asm.Imm saved ];
         Asm.ins a Opcode.Pushl [ Asm.Imm pc ];
         Asm.ins a Opcode.Svpctx []))

(* ------------------------------------------------------------------ *)
(* MOVPSL                                                              *)

let movpsl =
  property ~count:100 "MOVPSL"
    (let* psl = gen_psl () in
     case "MOVPSL R3" psl (fun a -> Asm.ins a Opcode.Movpsl [ Asm.R 3 ]))

(* ------------------------------------------------------------------ *)
(* PROBE under ring compression                                        *)

(* Every protection code, probe mode, access and PTE validity.  The
   probe runs in kernel mode with PSL<PRV> set to the probe mode, twice:
   in a VM the first finds the shadow PTE unfilled and traps, the second
   (once the shadow PTE is filled from a valid VM PTE) is the
   microcode's.  Ring compression runs virtual kernel and executive mode
   both in real executive mode, so a VM's executive mode may access what
   its kernel mode may (DESIGN.md §6, paper §4.3.1, §5): a VM-executive
   probe of a page only kernel mode may touch succeeds where the bare
   machine's fails, and both probes say so. *)
let leaks ~write prot mode =
  let can = if write then Protection.can_write else Protection.can_read in
  mode = Mode.Executive && (not (can prot mode)) && can (Protection.compress prot) mode

(* The bare run as the leak changes it: Z clear after each probe, in R5
   and in the PSL the BPT frame saved on the kernel stack. *)
let z_cleared b =
  let clear_z i w = if i = 1 then w land lnot 4 else w in
  {
    b with
    regs = List.mapi (fun r w -> if r = 5 then w land lnot 4 else w) b.regs;
    stacks = List.mapi (fun s ws -> if s = 0 then List.mapi clear_z ws else ws) b.stacks;
  }

let test_probe () =
  let leaking = ref 0 in
  List.iter
    (fun prot ->
      List.iter
        (fun mode ->
          List.iter
            (fun (op, write) ->
              List.iter
                (fun valid ->
                  let probe a =
                    Asm.ins a op [ Asm.Lit 0; Asm.Lit 4; Asm.Abs 0x8000_0000 ]
                  in
                  let c =
                    {
                      what = Opcode.name op;
                      psl = Psl.with_prv (Psl.with_cur 0 Mode.Kernel) mode;
                      regs = Array.make 10 0;
                      mapped =
                        Some (Pte.make ~valid ~modify:true ~prot ~pfn:48 ());
                      body =
                        (fun a ->
                          probe a;
                          Asm.ins a Opcode.Movpsl [ Asm.R 5 ];
                          probe a);
                      data = [];
                      excuse_regs = [];
                    }
                  in
                  let b = run_bare c and v = run_vm c in
                  let leak = leaks ~write prot mode in
                  if leak then incr leaking;
                  if not (equivalent c (if leak then z_cleared b else b) v) then
                    Alcotest.failf "@[<v>%s %a %a valid=%b@ bare:@ %a@ vm:@ %a@]"
                      (Opcode.name op) Protection.pp prot Mode.pp mode valid
                      pp_snapshot b pp_snapshot v)
                [ true; false ])
            [ (Opcode.Prober, false); (Opcode.Probew, true) ])
        Mode.all)
    Protection.all;
  (* KW and KR for reads; KW, ERKW, SRKW and URKW for writes; each with
     the PTE valid and invalid *)
  Alcotest.(check int) "leaking cases" 12 !leaking

let () =
  Alcotest.run "bare = VM, one instruction"
    [
      ( "sensitive",
        [
          rei;
          chm;
          mtpr_mfpr;
          mfpr;
          ldpctx;
          svpctx;
          movpsl;
          Alcotest.test_case "PROBE under ring compression" `Quick test_probe;
        ] );
    ]
