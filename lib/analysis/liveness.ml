(* Backward liveness over the recovered CFG: which NZVC condition-code
   bits, and which of R0..R14, can still be read after each instruction
   executes.  The results feed the tier-3 slot compiler through
   [Vax_cpu.Block_facts]: a site whose N, Z and V are provably dead gets
   its condition-code recomputation deferred (see [State.cc_lazy]), and
   a pure register source operand whose value vaxflow proves constant on
   every path is pre-folded to an immediate.  Dead register writes are
   detected too, but only counted — register state must stay
   bit-identical, so nothing is elided there.

   Soundness shape.  Liveness is a backward property: a bit is dead at a
   point iff NO path from that point reads it before writing it.  The
   analysis must therefore over-approximate liveness — anything it
   cannot see keeps bits alive:

   - a block with no recovered successors (computed jump, RSB/RET,
     HALT/REI, end of image) gets an all-live live-out seed;
   - a successor address that is not a recovered block start (cross
     image, mid-block target) likewise forces all-live;
   - an opcode outside the modelled set reads everything ([cc_gen] and
     [reg_gen] default to all);
   - only bits an instruction overwrites on *every* non-faulting path
     are killed.  DIVL's divide-by-zero path, which writes V alone, is
     covered differently: exception delivery materializes any deferred
     codes first, so the trap frame is exact whatever was elided.

   Calls used to read everything because the callee does.  With the
   interprocedural pass ([Summaries]) a JSB/BSBB/CALLS site whose
   single static target has a usable summary is transformed instead:
   the callee edge is dropped from the solve and the return edge
   contributes  S.gen ∪ (live-in(return point) ∖ S.kill)  — what the
   callee reads, plus what survives its definite writes — and the call
   instruction's own backward effect shrinks to the hardware protocol
   (stack pointer, and AP/FP for CALLS).  Sites without a usable
   summary (computed callee, cross-image target, summary forced to
   top) fall back to the old all-read behaviour and are counted in
   [Block_facts.summary_fallbacks].

   Unlike the mode facts, CC/register liveness stays sound even when
   vaxflow's computed-flow valve closes: unresolved flow only ever
   *adds* unknown successors, and unknown successors are already
   all-live here.  Constant facts are forward facts and do need the
   valve: they are only emitted when the workload-wide analysis settled
   with [mode_sound] (same gate as the oracle's mode refinement). *)

open Vax_arch
module Disasm = Vax_asm.Disasm
module Block_facts = Vax_cpu.Block_facts

let all_cc = Block_facts.all_cc

(* The packed domain and the per-instruction effect tables live in
   [Summaries] (both passes share one modelled-instruction set; a
   divergence would be a soundness bug in whichever pass was weaker). *)
let all_regs = Summaries.all_regs
let reg_bit = Summaries.reg_bit
let all_live = Summaries.all_live
let cc_of = Summaries.cc_of
let regs_of = Summaries.regs_of
let cc_gen = Summaries.cc_gen
let cc_kill = Summaries.cc_kill
let regs_modelled = Summaries.regs_modelled
let reg_effect = Summaries.reg_effect

(* Combined (gen, kill) over the packed domain. *)
let insn_effect (i : Disasm.insn) =
  match i.Disasm.opcode with
  | None -> (all_live, 0)
  | Some op ->
      let rg, rk = reg_effect op i in
      (cc_gen op lor (rg lsl 4), cc_kill op lor (rk lsl 4))

let live_before i live_after =
  let gen, kill = insn_effect i in
  gen lor (live_after land lnot kill)

(* ---- summary-transformed call sites ---------------------------------- *)

(* One call block the solver treats interprocedurally: the callee edge
   is suppressed, the return edge is filtered through the callee's
   summary, and the call instruction's own effect is the protocol's. *)
type call_xform = {
  x_target : int;
  x_ret : int;
  x_summary : Summaries.summary;
  x_protocol : Summaries.summary;
}

(* Call blocks of [cfg] with a same-image static target whose summary
   is usable.  Everything else falls back to the conservative call
   treatment baked into [reg_effect]/[cc_gen]. *)
let call_xforms (cfg : Cfg.t) (summ : Summaries.t) =
  let block_at = Hashtbl.create 64 in
  List.iter
    (fun (b : Cfg.block) -> Hashtbl.replace block_at b.Cfg.b_start ())
    cfg.Cfg.blocks;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (b : Cfg.block) ->
      let l = b.Cfg.b_last in
      match Summaries.call_site l with
      | Some (op, t, r) when Hashtbl.mem block_at t && Hashtbl.mem block_at r
        -> (
          match Summaries.find summ t with
          | Some s when Summaries.usable s ->
              Hashtbl.replace tbl b.Cfg.b_start
                {
                  x_target = t;
                  x_ret = r;
                  x_summary = s;
                  x_protocol = Summaries.protocol_effect op l;
                }
          | _ -> ())
      | _ -> ())
    cfg.Cfg.blocks;
  tbl

let no_xforms : (int, call_xform) Hashtbl.t = Hashtbl.create 1

(* (gen, kill) of straight-line code [insns] followed by code with
   effect [after]: its live-in is [gen lor (live_out land lnot kill)].
   Right fold = backward walk. *)
let seq_effect insns after =
  List.fold_right
    (fun i (g, k) ->
      let gi, ki = insn_effect i in
      (gi lor (g land lnot ki), ki lor k))
    insns after

(* A block's (gen, kill) from its live-out to its live-in.  For a
   transformed call block the live-out is the liveness at the callee
   entry, and the call instruction contributes only its protocol
   effect. *)
let block_effect ?(xforms = no_xforms) (b : Cfg.block) =
  match Hashtbl.find_opt xforms b.Cfg.b_start with
  | None -> seq_effect b.Cfg.b_insns (0, 0)
  | Some xi ->
      seq_effect b.Cfg.b_body
        (xi.x_protocol.Summaries.sg, xi.x_protocol.Summaries.sk)

(* ---- per-image solve -------------------------------------------------- *)

(* Solved per-block live-out masks for one image, using the forward
   worklist solver on the reversed graph: a block's state is its
   live-out; its transfer hands its live-in to every predecessor.
   Every block is seeded with its control-flow-boundary contribution —
   all-live when any successor is unrecovered, bottom otherwise — which
   also enqueues every block at least once.  A predecessor that is a
   transformed call block receives the summary-filtered contribution on
   its return edge and nothing on its callee edge.  Each block's
   (gen, kill) is derived once, not on every transfer. *)
let solve_image ?(xforms = no_xforms) (cfg : Cfg.t) =
  let block_at = Hashtbl.create 64 in
  List.iter
    (fun (b : Cfg.block) ->
      Hashtbl.replace block_at b.Cfg.b_start (block_effect ~xforms b))
    cfg.Cfg.blocks;
  let preds = Hashtbl.create 64 in
  List.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun s ->
          if Hashtbl.mem block_at s then
            Hashtbl.replace preds s (b.Cfg.b_start :: Option.value ~default:[] (Hashtbl.find_opt preds s)))
        b.Cfg.b_succs)
    cfg.Cfg.blocks;
  let seeds =
    List.map
      (fun (b : Cfg.block) ->
        let boundary =
          if
            b.Cfg.b_succs = []
            || List.exists (fun s -> not (Hashtbl.mem block_at s)) b.Cfg.b_succs
          then all_live
          else 0
        in
        (b.Cfg.b_start, boundary))
      cfg.Cfg.blocks
  in
  let transfer node live_out =
    match Hashtbl.find_opt block_at node with
    | None -> []
    | Some (gen, kill) ->
        let live_in = gen lor (live_out land lnot kill) in
        List.filter_map
          (fun p ->
            match Hashtbl.find_opt xforms p with
            | Some xp when node = xp.x_ret ->
                Some
                  ( p,
                    xp.x_summary.Summaries.sg
                    lor (live_in land lnot xp.x_summary.Summaries.sk) )
            | Some xp when node = xp.x_target -> None  (* callee edge *)
            | _ -> Some (p, live_in))
          (Option.value ~default:[] (Hashtbl.find_opt preds node))
  in
  Dataflow.solve
    ~lattice:{ Dataflow.join = ( lor ); equal = Int.equal }
    ~transfer ~seeds

(* ---- fact extraction -------------------------------------------------- *)

(* Walk a block backward from its solved live-out, handing each
   instruction its live-after mask in address order via [emit], with
   the same call-site treatment as the solve. *)
let walk_block ?(xforms = no_xforms) (b : Cfg.block) live_out ~emit =
  let rec go tail = function
    | [] -> tail
    | i :: rest ->
        let live_after = go tail rest in
        emit i live_after;
        live_before i live_after
  in
  match Hashtbl.find_opt xforms b.Cfg.b_start with
  | None -> ignore (go live_out b.Cfg.b_insns)
  | Some xi ->
      emit b.Cfg.b_last live_out;
      let after_body =
        xi.x_protocol.Summaries.sg
        lor (live_out land lnot xi.x_protocol.Summaries.sk)
      in
      ignore (go after_body b.Cfg.b_body)

type stats = {
  images : int;
  blocks : int;
  insns : int;  (* instructions walked for facts *)
  mode_sound : bool;  (* workload-wide: constants were emitted *)
}

(* Facts from a workload-wide [Analysis] (per-image CFGs, callee
   summaries, and the settled vaxflow fixpoint with call-site register
   clobbers narrowed to each callee's preservation mask): solve liveness
   per image with the summary-transformed call edges, take constants
   from the fixpoint, and populate one fact table keyed by virtual
   address.  VA collisions between images merge conservatively inside
   [Block_facts.add]. *)
let facts_of_analysis (a : Analysis.t) =
  let facts = Block_facts.create () in
  let summaries = a.Analysis.summaries in
  List.iter
    (fun (s : Summaries.t) ->
      facts.Block_facts.solver_visits <-
        facts.Block_facts.solver_visits + s.Summaries.solver.Dataflow.visits;
      facts.Block_facts.solver_updates <-
        facts.Block_facts.solver_updates + s.Summaries.solver.Dataflow.updates)
    summaries;
  let mode_sound = Analysis.mode_sound a in
  let nblocks = ref 0 and ninsns = ref 0 in
  List.iter2
    (fun ((cfg : Cfg.t), (summ : Summaries.t)) (r : Absdom.result) ->
      let xforms = call_xforms cfg summ in
      let liveouts, st = solve_image ~xforms cfg in
      facts.Block_facts.solver_visits <-
        facts.Block_facts.solver_visits + st.Dataflow.visits;
      facts.Block_facts.solver_updates <-
        facts.Block_facts.solver_updates + st.Dataflow.updates;
      let code = cfg.Cfg.image.Cfg.code and base = cfg.Cfg.image.Cfg.base in
      List.iter
        (fun (b : Cfg.block) ->
          incr nblocks;
          let live_out =
            Option.value ~default:all_live
              (Hashtbl.find_opt liveouts b.Cfg.b_start)
          in
          let is_call_block = Summaries.call_site b.Cfg.b_last <> None in
          if is_call_block then
            if Hashtbl.mem xforms b.Cfg.b_start then
              facts.Block_facts.summary_calls <-
                facts.Block_facts.summary_calls + 1
            else
              facts.Block_facts.summary_fallbacks <-
                facts.Block_facts.summary_fallbacks + 1;
          walk_block ~xforms b live_out ~emit:(fun i live_after ->
              incr ninsns;
              match i.Disasm.opcode with
              | None -> ()
              | Some op ->
                  (* an unresolved computed call sitting mid-block also
                     falls back (the resolved ones end their block) *)
                  (match op with
                  | (Opcode.Jsb | Opcode.Bsbb | Opcode.Calls)
                    when i.Disasm.address <> b.Cfg.b_last.Disasm.address ->
                      facts.Block_facts.summary_fallbacks <-
                        facts.Block_facts.summary_fallbacks + 1
                  | _ -> ());
                  (* dead register writes: detected, counted, never
                     elided (register state stays bit-identical) *)
                  let accs = Opcode.operands op in
                  if regs_modelled op then
                    List.iteri
                      (fun idx spec ->
                        match (spec, List.nth_opt accs idx) with
                        | ( Disasm.Register rn,
                            Some (Opcode.Write, Opcode.Long) )
                          when rn < 15
                               && regs_of live_after land (1 lsl rn) = 0 ->
                            facts.Block_facts.dead_reg_writes <-
                              facts.Block_facts.dead_reg_writes + 1
                        | _ -> ())
                      i.Disasm.specs;
                  let consts =
                    if not mode_sound then []
                    else
                      match
                        Hashtbl.find_opt r.Absdom.facts i.Disasm.address
                      with
                      | None -> []
                      | Some (s : Absdom.state) ->
                          List.concat
                            (List.mapi
                               (fun idx spec ->
                                 match (spec, List.nth_opt accs idx) with
                                 | Disasm.Register rn, Some (Opcode.Read, _)
                                   when rn < 15 -> (
                                     match s.Absdom.regs.(rn) with
                                     | Absdom.Const.Known v -> [ (idx, v) ]
                                     | _ -> [])
                                 | _ -> [])
                               i.Disasm.specs)
                  in
                  let off = i.Disasm.address - base in
                  let f_bytes =
                    if off >= 0 && off + i.Disasm.length <= Bytes.length code
                    then Bytes.sub_string code off i.Disasm.length
                    else ""
                  in
                  Block_facts.add facts ~va:i.Disasm.address
                    {
                      Block_facts.f_op = op;
                      f_len = i.Disasm.length;
                      f_cc_dead = all_cc land lnot (cc_of live_after);
                      f_consts = consts;
                      f_bytes;
                    }))
        cfg.Cfg.blocks)
    (List.combine a.Analysis.cfgs summaries)
    a.Analysis.results;
  ( facts,
    {
      images = List.length a.Analysis.cfgs;
      blocks = !nblocks;
      insns = !ninsns;
      mode_sound;
    } )

(* The full pipeline over a workload's images. *)
let facts_of_images (images : Cfg.image list) =
  facts_of_analysis (Analysis.of_images images)
