(* Interprocedural callee summaries over the recovered CFG.

   For every basic-block start (and so for every JSB/BSBB/CALLS entry
   point reachable through a static call target), compute a summary of
   executing the callee from that address until its matching return:

     sg  registers and condition codes possibly read before being
         written on ANY path from the entry (including paths that never
         return — a callee that loops forever still reads);
     sk  registers and condition codes definitely written before the
         return, on every returning path;
     sc  registers possibly written anywhere from the entry (the
         complement is the preservation mask: a register outside [sc]
         still holds its at-call value at every point of the callee and
         after the return).

   [sg] and [sk] use the packed liveness domain (CC bits 0..3, R0..R14
   in bits 4..18); [sc] is a plain 15-bit register mask.

   Soundness shape.  The summary is trusted by the caller-side liveness
   transform and by vaxflow's call-site constant preservation, so it
   must over-approximate reads and clobbers and under-approximate
   kills.  Anything the analysis cannot see is absorbed into [top]
   (all-read, no-kill, all-clobbered), which callers count as a
   fallback:

   - an opcode outside the modelled set, or a computed (unresolved)
     JSB/CALLS/JMP, absorbs: nothing downstream of it in the walk can
     be claimed, because control may leave the callee for good (an
     unknown callee may even pop our return address);
   - any modelled instruction that writes SP or FP escapes the whole
     path: the return matching below (RSB pops the top of stack, RET
     unwinds through FP) is only claimed for callees that keep the
     call frame where the caller put it.  Balanced nested calls with
     static targets are fine — their push/pop is part of the composed
     protocol effect;
   - a callee path ending in HALT contributes bottom: the machine
     stops, and every runtime inspection point materializes deferred
     state first, so the path constrains neither kills nor reads;
   - REI/BPT paths absorb into top (delivery elsewhere).

   What is NOT checked statically: a callee storing through a computed
   pointer could overwrite its own stack frame and return elsewhere.
   Like every binary-level summary analysis we assume well-behaved
   stacks; the full-catalog differential suite enforces the assumption
   on every shipped workload (see ANALYSIS.md).

   The fixpoint runs on the existing [Dataflow] worklist solver: each
   node's state is its entry summary, and a node's transfer re-derives
   the summary of every dependent block (predecessors by control flow,
   plus call blocks whose target or return point it is) from a mirror
   table of current states.  All three components evolve monotonically
   ([sg]/[sc] grow, [sk] shrinks), so the least fixpoint exists and the
   solver terminates. *)

open Vax_arch
module Disasm = Vax_asm.Disasm
module Block_facts = Vax_cpu.Block_facts

let n_bit = Block_facts.n_bit
let z_bit = Block_facts.z_bit
let v_bit = Block_facts.v_bit
let c_bit = Block_facts.c_bit
let all_cc = Block_facts.all_cc

(* The packed abstract domain shared with [Liveness]: CC bits in 0..3,
   R0..R14 liveness in bits 4..18.  One solver run covers both. *)
let all_regs = 0x7FFF
let reg_bit rn = 1 lsl (4 + rn)
let all_live = all_cc lor (all_regs lsl 4)
let cc_of m = m land all_cc
let regs_of m = (m lsr 4) land all_regs

(* ---- per-instruction effects (shared with the liveness pass) --------- *)

(* CC bits an instruction reads.  Conditional branches read their
   condition; the modelled data instructions read none; everything else
   (CHMx pushes the PSL, MOVPSL/BISPSW observe it, calls run unknown
   code, ...) conservatively reads all four. *)
let cc_gen : Opcode.t -> int = function
  | Opcode.Bneq | Opcode.Beql -> z_bit
  | Opcode.Bgtr | Opcode.Bleq -> n_bit lor z_bit
  | Opcode.Bgeq | Opcode.Blss -> n_bit
  | Opcode.Bgtru | Opcode.Blequ -> c_bit lor z_bit
  | Opcode.Bvc | Opcode.Bvs -> v_bit
  | Opcode.Bcc | Opcode.Bcs -> c_bit
  | Opcode.Blbs | Opcode.Blbc | Opcode.Brb | Opcode.Brw | Opcode.Nop
  | Opcode.Aoblss | Opcode.Sobgtr ->
      0
  | Opcode.Movl | Opcode.Movb | Opcode.Movzbl | Opcode.Clrl | Opcode.Clrb
  | Opcode.Pushl | Opcode.Moval | Opcode.Addl2 | Opcode.Addl3 | Opcode.Subl2
  | Opcode.Subl3 | Opcode.Mull2 | Opcode.Mull3 | Opcode.Divl2 | Opcode.Divl3
  | Opcode.Mnegl | Opcode.Incl | Opcode.Decl | Opcode.Ashl | Opcode.Cmpl
  | Opcode.Cmpb | Opcode.Tstl | Opcode.Tstb | Opcode.Bisl2 | Opcode.Bisl3
  | Opcode.Bicl2 | Opcode.Bicl3 | Opcode.Xorl2 | Opcode.Xorl3 ->
      0
  | _ -> all_cc

(* CC bits an instruction overwrites on every non-faulting path.  The
   full writers set all four; MOV/CLR/MOVZ/PUSH/MOVA and the logicals
   write N and Z, clear V, and pass C through (a pass-through neither
   reads nor kills).  DIVL kills all four on its normal path; its
   zero-divisor path is handled by materialize-at-delivery, so claiming
   the normal path's kill here stays sound.  AOBLSS/SOBGTR write N, Z
   and V and keep C. *)
let cc_kill : Opcode.t -> int = function
  | Opcode.Addl2 | Opcode.Addl3 | Opcode.Subl2 | Opcode.Subl3 | Opcode.Mull2
  | Opcode.Mull3 | Opcode.Divl2 | Opcode.Divl3 | Opcode.Mnegl | Opcode.Incl
  | Opcode.Decl | Opcode.Ashl | Opcode.Cmpl | Opcode.Cmpb | Opcode.Tstl
  | Opcode.Tstb ->
      all_cc
  | Opcode.Movl | Opcode.Movb | Opcode.Movzbl | Opcode.Clrl | Opcode.Clrb
  | Opcode.Pushl | Opcode.Moval | Opcode.Bisl2 | Opcode.Bisl3 | Opcode.Bicl2
  | Opcode.Bicl3 | Opcode.Xorl2 | Opcode.Xorl3 | Opcode.Aoblss | Opcode.Sobgtr
    ->
      n_bit lor z_bit lor v_bit
  | _ -> 0

(* Opcodes whose register effects are fully described by their operand
   specifiers (plus PUSHL's implicit SP use).  Anything else — calls,
   returns, CHMx, MTPR, string/context instructions — conservatively
   reads every register. *)
let regs_modelled : Opcode.t -> bool = function
  | Opcode.Nop | Opcode.Brb | Opcode.Brw | Opcode.Bneq | Opcode.Beql
  | Opcode.Bgtr | Opcode.Bleq | Opcode.Bgeq | Opcode.Blss | Opcode.Bgtru
  | Opcode.Blequ | Opcode.Bvc | Opcode.Bvs | Opcode.Bcc | Opcode.Bcs
  | Opcode.Blbs | Opcode.Blbc | Opcode.Aoblss | Opcode.Sobgtr | Opcode.Movl
  | Opcode.Movb | Opcode.Movzbl | Opcode.Clrl | Opcode.Clrb | Opcode.Pushl
  | Opcode.Moval | Opcode.Addl2 | Opcode.Addl3 | Opcode.Subl2 | Opcode.Subl3
  | Opcode.Mull2 | Opcode.Mull3 | Opcode.Divl2 | Opcode.Divl3 | Opcode.Mnegl
  | Opcode.Incl | Opcode.Decl | Opcode.Ashl | Opcode.Cmpl | Opcode.Cmpb
  | Opcode.Tstl | Opcode.Tstb | Opcode.Bisl2 | Opcode.Bisl3 | Opcode.Bicl2
  | Opcode.Bicl3 | Opcode.Xorl2 | Opcode.Xorl3 ->
      true
  | _ -> false

let sp = 14
let fp = 13
let ap = 12

(* Register gen/kill masks from the operand specifiers.  A register is
   killed only by a pure longword [Write] register operand: byte-width
   register writes merge into the low byte (they read the rest), and
   [Modify] reads first.  Addressing bases, autoincrement and
   autodecrement registers are always read. *)
let reg_effect (op : Opcode.t) (i : Disasm.insn) =
  if not (regs_modelled op) then (all_regs, 0)
  else begin
    let gen = ref (if op = Opcode.Pushl then 1 lsl sp else 0) in
    let kill = ref 0 in
    let accs = Opcode.operands op in
    List.iteri
      (fun idx spec ->
        let acc = List.nth_opt accs idx in
        let read rn = if rn < 15 then gen := !gen lor (1 lsl rn) in
        match spec with
        | Disasm.Register rn -> (
            match acc with
            | Some (Opcode.Write, Opcode.Long) ->
                if rn < 15 then kill := !kill lor (1 lsl rn)
            | Some ((Opcode.Read | Opcode.Modify), _)
            | Some (Opcode.Write, _) ->
                read rn
            | Some ((Opcode.Address | Opcode.Branch_byte | Opcode.Branch_word), _)
            | None ->
                read rn)
        | Disasm.Reg_deferred rn | Disasm.Autodec rn | Disasm.Autoinc rn
        | Disasm.Autoinc_deferred rn | Disasm.Index rn ->
            read rn
        | Disasm.Disp { rn; _ } -> read rn
        | Disasm.Literal _ | Disasm.Immediate _ | Disasm.Absolute _
        | Disasm.Branch_dest _ ->
            ())
      i.Disasm.specs;
    (!gen, !kill land lnot !gen)
  end

(* Registers an instruction may write: register destinations (any width
   or access that stores back) and autoincrement/autodecrement bases,
   plus PUSHL's SP. *)
let reg_writes (op : Opcode.t) (i : Disasm.insn) =
  let wr = ref (if op = Opcode.Pushl then 1 lsl sp else 0) in
  let accs = Opcode.operands op in
  List.iteri
    (fun idx spec ->
      let write rn = if rn < 15 then wr := !wr lor (1 lsl rn) in
      match spec with
      | Disasm.Register rn -> (
          match List.nth_opt accs idx with
          | Some ((Opcode.Write | Opcode.Modify), _) -> write rn
          | _ -> ())
      | Disasm.Autoinc rn | Disasm.Autodec rn | Disasm.Autoinc_deferred rn ->
          write rn
      | _ -> ())
    i.Disasm.specs;
  !wr

(* Registers a single specifier reads (for the CALLS argument-count
   operand of an otherwise protocol-described call). *)
let spec_reads = function
  | Disasm.Register rn
  | Disasm.Reg_deferred rn
  | Disasm.Autoinc rn
  | Disasm.Autodec rn
  | Disasm.Autoinc_deferred rn
  | Disasm.Index rn
  | Disasm.Disp { rn; _ } ->
      if rn < 15 then 1 lsl rn else 0
  | Disasm.Literal _ | Disasm.Immediate _ | Disasm.Absolute _
  | Disasm.Branch_dest _ ->
      0

(* ---- the summary lattice --------------------------------------------- *)

type summary = {
  sg : int;  (* packed: possibly read before written, any path *)
  sk : int;  (* packed: definitely written before return *)
  sc : int;  (* register mask: possibly written anywhere *)
}

(* join identity: an unreached (or never-returning) contribution *)
let bot = { sg = 0; sk = all_live; sc = 0 }

(* the conservative element: all-read, no-kill, all-clobbered *)
let top = { sg = all_live; sk = 0; sc = all_regs }
let is_top s = s.sg = all_live && s.sk = 0 && s.sc = all_regs
let join a b = { sg = a.sg lor b.sg; sk = a.sk land b.sk; sc = a.sc lor b.sc }
let equal a b = a.sg = b.sg && a.sk = b.sk && a.sc = b.sc

(* [a] then [b].  [top] absorbs on the left: past an unknown transfer
   nothing downstream may be claimed (control may never come back). *)
let compose a b =
  if is_top a then a
  else
    {
      sg = a.sg lor (b.sg land lnot a.sk);
      sk = a.sk lor b.sk;
      sc = a.sc lor b.sc;
    }

(* The call protocol's own effect, excluding the callee body: JSB/BSBB
   push the return PC (SP read and written); CALLS additionally stacks
   and rewrites AP and FP and reads its argument-count operand.  None
   of the four touch the condition codes. *)
let protocol_effect (op : Opcode.t) (i : Disasm.insn) =
  match op with
  | Opcode.Jsb | Opcode.Bsbb ->
      { sg = reg_bit sp; sk = reg_bit sp; sc = 1 lsl sp }
  | Opcode.Calls ->
      let narg =
        match i.Disasm.specs with s :: _ -> spec_reads s | [] -> 0
      in
      let prw = reg_bit sp lor reg_bit fp lor reg_bit ap in
      { sg = prw lor (narg lsl 4); sk = prw; sc = (1 lsl sp) lor (1 lsl fp) lor (1 lsl ap) }
  | _ -> top

(* Register mask the caller-visible call writes even with a perfectly
   clean callee (used to widen the preservation mask handed to
   vaxflow). *)
let protocol_writes : Opcode.t -> int = function
  | Opcode.Jsb | Opcode.Bsbb -> 1 lsl sp
  | Opcode.Calls -> (1 lsl sp) lor (1 lsl fp) lor (1 lsl ap)
  | _ -> all_regs

(* RSB pops the return PC (SP read, then written).  RET unwinds the
   CALLS frame through FP: FP is read; SP, AP and FP are rewritten.
   Neither touches the condition codes. *)
let rsb_effect = { sg = reg_bit sp; sk = reg_bit sp; sc = 1 lsl sp }

let ret_effect =
  let w = reg_bit sp lor reg_bit fp lor reg_bit ap in
  { sg = reg_bit fp; sk = w; sc = (1 lsl sp) lor (1 lsl fp) lor (1 lsl ap) }

(* One ordinary (non-call, non-return) instruction as a summary.  Any
   modelled instruction that writes SP or FP escapes: the return
   matching assumes the frame stays where the caller put it. *)
let insn_summary (i : Disasm.insn) =
  match i.Disasm.opcode with
  | None -> top
  | Some op ->
      if not (regs_modelled op) then top
      else
        let wr = reg_writes op i in
        if wr land ((1 lsl sp) lor (1 lsl fp)) <> 0 then top
        else
          let rg, rk = reg_effect op i in
          { sg = cc_gen op lor (rg lsl 4); sk = cc_kill op lor (rk lsl 4); sc = wr }

(* A resolved static call: exactly one static target, which must come
   with the fall-through return point. *)
let call_site (i : Disasm.insn) =
  match i.Disasm.opcode with
  | Some ((Opcode.Jsb | Opcode.Bsbb | Opcode.Calls) as op) -> (
      match Cfg.static_targets i with
      | [ t ] -> Some (op, t, i.Disasm.address + i.Disasm.length)
      | _ -> None)
  | _ -> None

(* ---- per-image fixpoint ---------------------------------------------- *)

type t = {
  entries : (int, summary) Hashtbl.t;  (* block start -> entry summary *)
  solver : Dataflow.stats;
}

(* How a block's summary follows from its successors' summaries, given
   its last instruction. *)
type tail =
  | Fixed of summary  (* reads no successor: return, stop, escape *)
  | Call of summary * int * int  (* protocol effect, callee, return point *)
  | Jump of int  (* a resolved JMP transfers without touching state *)
  | Step of summary * int list  (* the instruction, then its successors *)

let tail_of (b : Cfg.block) =
  let l = b.Cfg.b_last in
  match call_site l with
  | Some (op, t, r) -> Call (protocol_effect op l, t, r)
  | None -> (
      match l.Disasm.opcode with
      | Some Opcode.Rsb -> Fixed rsb_effect
      | Some Opcode.Ret -> Fixed ret_effect
      | Some Opcode.Halt ->
          (* the machine stops; every inspection point materializes
             deferred state first *)
          Fixed bot
      | Some (Opcode.Rei | Opcode.Bpt) -> Fixed top
      | Some Opcode.Jmp -> (
          (* a computed JMP escapes *)
          match Cfg.static_targets l with [ t ] -> Jump t | _ -> Fixed top)
      | _ -> Step (insn_summary l, b.Cfg.b_succs))

(* the block-start addresses whose summary a tail reads *)
let tail_deps = function
  | Fixed _ -> []
  | Call (_, t, r) -> [ t; r ]
  | Jump t -> [ t ]
  | Step (_, succs) -> succs

let of_cfg (cfg : Cfg.t) =
  (* per block: its body's instruction summaries and its tail, derived
     once rather than on every solver transfer *)
  let block_at = Hashtbl.create 64 in
  List.iter
    (fun (b : Cfg.block) ->
      Hashtbl.replace block_at b.Cfg.b_start
        (List.map insn_summary b.Cfg.b_body, tail_of b))
    cfg.Cfg.blocks;
  (* mirror of the solver's states, read by [compute] *)
  let cur = Hashtbl.create 64 in
  let cur_at a = Option.value ~default:bot (Hashtbl.find_opt cur a) in
  let succ_summary a = if Hashtbl.mem block_at a then cur_at a else top in
  let rdeps = Hashtbl.create 64 in
  List.iter
    (fun (b : Cfg.block) ->
      let _, tail = Hashtbl.find block_at b.Cfg.b_start in
      List.iter
        (fun d ->
          Hashtbl.replace rdeps d
            (b.Cfg.b_start :: Option.value ~default:[] (Hashtbl.find_opt rdeps d)))
        (List.sort_uniq compare (tail_deps tail)))
    cfg.Cfg.blocks;
  let compute addr =
    match Hashtbl.find_opt block_at addr with
    | None -> top
    | Some (body, tail) ->
        let tail =
          match tail with
          | Fixed s -> s
          | Call (protocol, t, r) ->
              compose protocol (compose (succ_summary t) (succ_summary r))
          | Jump t -> succ_summary t
          | Step (s, []) -> compose s top
          | Step (s, succs) ->
              compose s
                (List.fold_left (fun acc a -> join acc (succ_summary a)) bot succs)
        in
        List.fold_right compose body tail
  in
  let transfer n s =
    Hashtbl.replace cur n s;
    List.map
      (fun d -> (d, compute d))
      (Option.value ~default:[] (Hashtbl.find_opt rdeps n))
  in
  let seeds =
    List.map (fun (b : Cfg.block) -> (b.Cfg.b_start, compute b.Cfg.b_start))
      cfg.Cfg.blocks
  in
  let states, solver =
    Dataflow.solve ~lattice:{ Dataflow.join; equal } ~transfer ~seeds
  in
  { entries = states; solver }

let find t addr = Hashtbl.find_opt t.entries addr

(* A summary worth applying at a call site: anything short of [top]
   sharpens at least one of liveness, kills, or preservation. *)
let usable s = not (is_top s)

(* Entry summaries joined across a workload's images: a cross-image
   call may resolve into a sibling, and a VA shared by two images
   keeps only the join of both callees. *)
let summary_table (ts : t list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun a v ->
          let v' =
            match Hashtbl.find_opt tbl a with
            | None -> v
            | Some old -> join old v
          in
          Hashtbl.replace tbl a v')
        s.entries)
    ts;
  tbl

(* Call-site register-clobber narrowing for the vaxflow const/mode
   domain: the registers a resolved callee may write (its [sc] plus
   the call protocol's own writes); [None] keeps the all-clobbered
   assumption.  Registers outside the mask are preserved across the
   call, so constants survive it. *)
let clobber_fn tbl (i : Disasm.insn) =
  match call_site i with
  | Some (op, t, _) -> (
      match Hashtbl.find_opt tbl t with
      | Some s when usable s -> Some (s.sc lor protocol_writes op)
      | _ -> None)
  | None -> None
