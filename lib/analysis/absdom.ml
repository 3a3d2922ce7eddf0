(* vaxflow — flow-sensitive abstract interpretation over the recovered
   CFG (paper §3–§4: which access mode is live when a sensitive site
   executes decides which trap it takes).  Two joined domains per
   program point:

   - the abstract access-mode set: which PSL<CUR> values (guest PSL
     when the image runs with PSL<VM> set) can be live when control
     reaches the point, as a bitmask over {!Mode.t}.  Nothing in the
     simulated subset changes the current mode mid-stream: CHMx enters
     its handler through a dispatch vector and *resumes* at the
     fall-through in the original mode (REI restores the saved PSL),
     and exception/interrupt resumption likewise restores the
     interrupted PSL — so the mode set propagates unchanged along every
     recovered edge and changes only at seeds.

   - a per-register constant lattice (R0..R14) fed by MOVL/MOVAL/CLRL
     and literal arithmetic, used to resolve register-indirect and
     register-displacement JMP/JSB/CALLS destinations into new CFG
     entries (iterated to fixpoint) and to power the PROBE and
     kernel-address diagnostics.

   Soundness of the mode component.  Control reaches an address either
   (a) along an analyzed edge — branch, static or const-resolved
   jump/call target, fall-through — where the propagated mode set
   over-approximates the machine's, or (b) through a materialized code
   address the analysis cannot see dispatched: an SCB or CHMx vector
   cell, a computed value the guest loaded, a REI target pushed as
   data.  Every such address had to be *materialized* somewhere in the
   workload's images: as an immediate or MOVAL source operand of
   reachable code, or as literal data bytes (vector tables, jump
   tables).  We collect all of these "escaped" values — immediates,
   MOVAL/PC-relative sources, and every 4-byte little-endian window of
   bytes recursive descent does not cover — across the whole workload,
   and treat each in-range escaped address as entered with unknown mode
   and unknown registers (as a seed when it starts a block, as a
   mid-block state reset otherwise).  Exception/interrupt resumption
   needs no seed: it returns to the interrupted point in the
   interrupted mode, already tracked.  If any computed JMP/JSB/CALLS
   destination remains unresolved, the valve closes: mode facts are
   widened to top ([mode_sound] = false), and the oracle falls back to
   flowless prediction for the whole workload. *)

open Vax_arch
module Disasm = Vax_asm.Disasm

let wrap v = v land 0xFFFF_FFFF

(* ---- abstract access-mode set --------------------------------------- *)

module Modes = struct
  type t = int  (* bit [Mode.to_int m] set = mode [m] possible *)

  let bot = 0
  let top = 0xF
  let only m = 1 lsl Mode.to_int m
  let join = ( lor )
  let equal = Int.equal
  let is_bot m = m = bot
  let mem mode m = m land only mode <> 0
  let kernel_only m = m = only Mode.Kernel

  let names m =
    List.filter_map
      (fun md -> if mem md m then Some (Mode.name md) else None)
      Mode.all
end

(* ---- per-register constant lattice ---------------------------------- *)

module Const = struct
  type t = Bot | Known of int | Top

  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Known x, Known y when x = y -> a
    | _ -> Top

  let equal a b =
    match (a, b) with
    | Bot, Bot | Top, Top -> true
    | Known x, Known y -> x = y
    | _ -> false

  let map f = function Known v -> Known (wrap (f v)) | c -> c

  let map2 f a b =
    match (a, b) with
    | Known x, Known y -> Known (wrap (f x y))
    | Bot, _ | _, Bot -> Bot
    | _ -> Top
end

let nregs = 15 (* R0..R14; PC is the program point itself *)

type state = { modes : Modes.t; regs : Const.t array }

let top_regs () = Array.make nregs Const.Top
let top_state () = { modes = Modes.top; regs = top_regs () }

let state_join a b =
  {
    modes = Modes.join a.modes b.modes;
    regs = Array.init nregs (fun i -> Const.join a.regs.(i) b.regs.(i));
  }

let state_equal a b =
  Modes.equal a.modes b.modes
  && Array.for_all2 Const.equal a.regs b.regs

let lattice = { Dataflow.join = state_join; equal = state_equal }

let flow_fact_of (s : state) : Classify.flow_fact =
  {
    Classify.may_kernel = Modes.mem Mode.Kernel s.modes;
    may_other = s.modes land lnot (Modes.only Mode.Kernel) land Modes.top <> 0;
  }

(* ---- one-instruction transfer function ------------------------------ *)

type effect = {
  post : state;
  vals : Const.t array;
      (* per-operand abstract value: the read value for Read/Modify
         operands, the effective address for Address operands *)
  addrs : Const.t array;
      (* per-operand abstract effective address (Top for non-memory
         specifiers) *)
}

let width_bytes = function Opcode.Byte -> 1 | Opcode.Word -> 2 | Opcode.Long -> 4

let step ?(clobber = fun _ -> None) (st : state) (i : Disasm.insn) : effect =
  let nops =
    match i.Disasm.opcode with
    | None -> 0
    | Some op -> List.length (Opcode.operands op)
  in
  let vals = Array.make nops Const.Top in
  let addrs = Array.make nops Const.Top in
  match i.Disasm.opcode with
  | None -> { post = st; vals; addrs }
  | Some op ->
      let accs = Opcode.operands op in
      let ends = Disasm.spec_ends i in
      if List.length i.Disasm.specs <> nops || (ends = [] && nops > 0) then
        (* truncated decode: keep the mode, forget the registers *)
        { post = { st with regs = top_regs () }; vals; addrs }
      else begin
        let regs = Array.copy st.regs in
        let get r = if r >= 0 && r < nregs then regs.(r) else Const.Top in
        let set r v = if r >= 0 && r < nregs then regs.(r) <- v in
        (* evaluate specifiers left to right, applying autoincrement /
           autodecrement side effects in operand order (a later operand
           reads the already-updated register, as the hardware does) *)
        List.iteri
          (fun idx ((access, width), (spec, end_off)) ->
            let addr =
              match spec with
              | Disasm.Absolute a -> Const.Known (wrap a)
              | Disasm.Reg_deferred r | Disasm.Autoinc r -> get r
              | Disasm.Autodec r -> Const.map (fun v -> v - width_bytes width) (get r)
              | Disasm.Disp { rn = 15; disp; deferred = false; _ } ->
                  Const.Known (wrap (i.Disasm.address + end_off + disp))
              | Disasm.Disp { rn; disp; deferred = false; _ } ->
                  Const.map (fun v -> v + disp) (get rn)
              | _ -> Const.Top
            in
            addrs.(idx) <- addr;
            vals.(idx) <-
              (match access with
              | Opcode.Branch_byte | Opcode.Branch_word -> Const.Top
              | Opcode.Address -> addr
              | _ -> (
                  match spec with
                  | Disasm.Literal v | Disasm.Immediate v -> Const.Known (wrap v)
                  | Disasm.Register r -> get r
                  | _ -> Const.Top));
            match spec with
            | Disasm.Autoinc r ->
                set r
                  (if access = Opcode.Address then Const.Top
                   else Const.map (fun v -> v + width_bytes width) (get r))
            | Disasm.Autodec r ->
                set r
                  (if access = Opcode.Address then Const.Top
                   else Const.map (fun v -> v - width_bytes width) (get r))
            | Disasm.Autoinc_deferred r -> set r (Const.map (fun v -> v + 4) (get r))
            | _ -> ())
          (List.combine accs (List.combine i.Disasm.specs ends));
        (* generic: any Write/Modify register destination loses its fact;
           specific opcodes below overwrite with the computed value *)
        List.iteri
          (fun _ ((access, _), spec) ->
            match (access, spec) with
            | (Opcode.Write | Opcode.Modify), Disasm.Register r -> set r Const.Top
            | _ -> ())
          (List.combine accs i.Disasm.specs);
        let set_dst spec v =
          match spec with Disasm.Register r -> set r v | _ -> ()
        in
        let v k = vals.(k) in
        (match (op, i.Disasm.specs) with
        | Opcode.Movl, [ _; d ] -> set_dst d (v 0)
        | Opcode.Moval, [ _; d ] -> set_dst d (v 0) (* v 0 is the address *)
        | Opcode.Movzbl, [ _; d ] -> set_dst d (Const.map (fun s -> s land 0xFF) (v 0))
        | Opcode.Clrl, [ d ] -> set_dst d (Const.Known 0)
        | Opcode.Mnegl, [ _; d ] -> set_dst d (Const.map (fun s -> -s) (v 0))
        | Opcode.Incl, [ d ] -> set_dst d (Const.map succ (v 0))
        | Opcode.Decl, [ d ] -> set_dst d (Const.map pred (v 0))
        | Opcode.Addl2, [ _; d ] -> set_dst d (Const.map2 ( + ) (v 0) (v 1))
        | Opcode.Addl3, [ _; _; d ] -> set_dst d (Const.map2 ( + ) (v 0) (v 1))
        | Opcode.Subl2, [ _; d ] -> set_dst d (Const.map2 (fun s dv -> dv - s) (v 0) (v 1))
        | Opcode.Subl3, [ _; _; d ] ->
            set_dst d (Const.map2 (fun s m -> m - s) (v 0) (v 1))
        | Opcode.Mull2, [ _; d ] -> set_dst d (Const.map2 ( * ) (v 0) (v 1))
        | Opcode.Mull3, [ _; _; d ] -> set_dst d (Const.map2 ( * ) (v 0) (v 1))
        | Opcode.Bisl2, [ _; d ] -> set_dst d (Const.map2 ( lor ) (v 0) (v 1))
        | Opcode.Bisl3, [ _; _; d ] -> set_dst d (Const.map2 ( lor ) (v 0) (v 1))
        | Opcode.Bicl2, [ _; d ] ->
            set_dst d (Const.map2 (fun m dv -> dv land lnot m) (v 0) (v 1))
        | Opcode.Bicl3, [ _; _; d ] ->
            set_dst d (Const.map2 (fun m s -> s land lnot m) (v 0) (v 1))
        | Opcode.Xorl2, [ _; d ] -> set_dst d (Const.map2 ( lxor ) (v 0) (v 1))
        | Opcode.Xorl3, [ _; _; d ] -> set_dst d (Const.map2 ( lxor ) (v 0) (v 1))
        | Opcode.Ashl, [ _; _; d ] ->
            (* exec-exact: both sides call Word.ashl *)
            set_dst d (Const.map2 (fun cnt s -> Word.ashl ~cnt s) (v 0) (v 1))
        | Opcode.Sobgtr, [ d; _ ] -> set_dst d (Const.map pred (v 0))
        | Opcode.Aoblss, [ _; d; _ ] -> set_dst d (Const.map succ (v 1))
        | _ -> ());
        (match op with
        | Opcode.Pushl -> set 14 (Const.map (fun v -> v - 4) (get 14))
        | Opcode.Chmk | Opcode.Chme | Opcode.Chms | Opcode.Chmu | Opcode.Ldpctx
          ->
            (* the handler (CHMx resumes here) may clobber anything;
               the mode is restored on return *)
            Array.fill regs 0 nregs Const.Top
        | Opcode.Calls | Opcode.Jsb | Opcode.Bsbb -> (
            (* the callee may clobber anything — unless an
               interprocedural summary proves a narrower write set
               (registers outside [mask] are preserved across the
               call, so constants survive it) *)
            match clobber i with
            | Some mask ->
                for rn = 0 to nregs - 1 do
                  if mask land (1 lsl rn) <> 0 then set rn Const.Top
                done
            | None -> Array.fill regs 0 nregs Const.Top)
        | _ -> ());
        { post = { st with regs }; vals; addrs }
      end

(* index of the destination operand of a computed control transfer *)
let computed_dest op = match op with Opcode.Calls -> Some 1 | Opcode.Jmp | Opcode.Jsb -> Some 0 | _ -> None

(* ---- escaped code addresses ----------------------------------------- *)

(* Every value through which a code address can be materialized and later
   dispatched behind the analysis's back: immediate operands, MOVAL
   sources (including PC-relative ones), and every 4-byte little-endian
   window of the bytes recursive descent does not cover (vector and jump
   tables, embedded data).  Callers pool these across all of a workload's
   images before analyzing each one. *)
let escape_values (cfg : Cfg.t) =
  let img = cfg.Cfg.image in
  let lo = img.Cfg.base in
  let code = img.Cfg.code in
  let n = Bytes.length code in
  let covered = Bytes.make n '\000' in
  let out = ref [] in
  Hashtbl.iter
    (fun _ (i : Disasm.insn) ->
      for k = i.Disasm.address - lo to i.Disasm.address - lo + i.Disasm.length - 1 do
        if k >= 0 && k < n then Bytes.set covered k '\001'
      done;
      match i.Disasm.opcode with
      | None -> ()
      | Some op -> (
          List.iter
            (function Disasm.Immediate v -> out := wrap v :: !out | _ -> ())
            i.Disasm.specs;
          match (op, i.Disasm.specs, Disasm.spec_ends i) with
          | Opcode.Moval, [ src; _ ], [ e; _ ] -> (
              match src with
              | Disasm.Absolute a -> out := wrap a :: !out
              | Disasm.Disp { rn = 15; disp; deferred = false; _ } ->
                  out := wrap (i.Disasm.address + e + disp) :: !out
              | _ -> ())
          | _ -> ()))
    cfg.Cfg.reachable;
  for k = 0 to n - 4 do
    let uncovered = ref false in
    for j = k to k + 3 do
      if Bytes.get covered j = '\000' then uncovered := true
    done;
    if !uncovered then
      out :=
        (Char.code (Bytes.get code k)
        lor (Char.code (Bytes.get code (k + 1)) lsl 8)
        lor (Char.code (Bytes.get code (k + 2)) lsl 16)
        lor (Char.code (Bytes.get code (k + 3)) lsl 24))
        :: !out
  done;
  !out

(* ---- whole-image analysis ------------------------------------------- *)

type stats = {
  rounds : int;  (* CFG-rebuild iterations (computed-target discovery) *)
  blocks : int;
  visits : int;  (* worklist pops, summed over rounds *)
  updates : int;  (* state changes, summed over rounds *)
  resolved : int;  (* computed JMP/JSB/CALLS destinations resolved *)
  xresolved : int;  (* resolved into a sibling image (extern) *)
  unresolved : int;  (* computed destinations the const domain missed *)
  escapes : int;  (* in-range escaped addresses (unknown-mode entries) *)
  mode_sound : bool;  (* no unresolved computed transfer: mode facts hold *)
}

type diag =
  | Mode_unreachable of { at : int }
      (** sensitive/privileged site the flow analysis never reaches *)
  | Never_kernel of { at : int; modes : Modes.t }
      (** privileged site whose mode set excludes kernel: it faults (or
          VM-emulation-traps to the privileged path) every time *)
  | Probe_const_mode of { at : int; mode : Mode.t }
      (** PROBE whose mode operand is a compile-time constant *)
  | Const_kernel_write of { at : int; addr : int }
      (** write through a register proven to hold a system-space
          (bit-31-set) address *)

type result = {
  cfg : Cfg.t;  (* final CFG, including discovered computed targets *)
  facts : (int, state) Hashtbl.t;  (* per-site input state *)
  stats : stats;
  diags : diag list;
  xtargets : int list;
      (* const-resolved computed targets landing in a sibling image
         (accepted by [extern]); the caller must re-analyze those
         images with these as unknown-mode entries for [mode_sound]
         to hold workload-wide *)
}

let max_rounds = 8

(* [cfg], when given, is [Cfg.analyze image] already recovered by the
   caller; it stands in for the first round's recovery whenever no
   computed target has added an entry. *)
let analyze ?(clobber = fun _ -> None) ?escapes ?(extern = fun _ -> false) ?cfg
    (image : Cfg.image) =
  let lo = image.Cfg.base and hi = image.Cfg.base + Bytes.length image.Cfg.code in
  let cfg0 = match cfg with Some c -> c | None -> Cfg.analyze image in
  let escape_list =
    match escapes with Some l -> l | None -> escape_values cfg0
  in
  let esc = Hashtbl.create 64 in
  List.iter (fun a -> if a >= lo && a < hi then Hashtbl.replace esc a ()) escape_list;
  let entry_modes =
    match image.Cfg.entry_mode with Some m -> Modes.only m | None -> Modes.top
  in
  (* walk a block's instructions from its input state; [f] sees each
     instruction's input state and its effect.  An escaped address in
     the middle of a block is an unknown entry: reset to top there. *)
  let walk b st0 f =
    let st = ref st0 in
    List.iter
      (fun (i : Disasm.insn) ->
        if i.Disasm.address <> b.Cfg.b_start && Hashtbl.mem esc i.Disasm.address
        then st := top_state ();
        let eff = step ~clobber !st i in
        f !st i eff;
        st := eff.post)
      b.Cfg.b_insns
  in
  let resolve_computed (i : Disasm.insn) (eff : effect) =
    (* computed = a JMP/JSB/CALLS destination [static_targets] missed *)
    match i.Disasm.opcode with
    | Some op when computed_dest op <> None && Cfg.static_targets i = [] ->
        let idx = Option.get (computed_dest op) in
        if idx < Array.length eff.vals then Some eff.vals.(idx) else Some Const.Top
    | _ -> None
  in
  let rec go round extra visits updates =
    let entries = List.sort_uniq compare (image.Cfg.entries @ extra) in
    let cfg =
      if entries = image.Cfg.entries then cfg0
      else Cfg.analyze { image with Cfg.entries }
    in
    let block_tbl = Hashtbl.create 64 in
    List.iter (fun b -> Hashtbl.replace block_tbl b.Cfg.b_start b) cfg.Cfg.blocks;
    let seeds =
      (image.Cfg.base, { modes = entry_modes; regs = top_regs () })
      :: Hashtbl.fold
           (fun a () acc ->
             if Hashtbl.mem block_tbl a then (a, top_state ()) :: acc else acc)
           esc []
    in
    let discovered = Hashtbl.create 8 in
    let transfer addr st =
      match Hashtbl.find_opt block_tbl addr with
      | None -> []
      | Some b ->
          let out = ref st and computed = ref [] in
          walk b st (fun _ i eff ->
              (match resolve_computed i eff with
              | Some (Const.Known a) when a >= lo && a < hi ->
                  Hashtbl.replace discovered a ();
                  (* JMP ends its block, so a resolved JMP target is an
                     edge from here; JSB/CALLS fall through mid-block and
                     their callee entry gets the post-call (top-register,
                     same-mode) state *)
                  computed := (a, eff.post) :: !computed
              | _ -> ());
              out := eff.post);
          List.map (fun s -> (s, !out)) b.Cfg.b_succs @ !computed
    in
    let solution, dstats = Dataflow.solve ~lattice ~transfer ~seeds in
    let visits = visits + dstats.Dataflow.visits in
    let updates = updates + dstats.Dataflow.updates in
    let fresh =
      Hashtbl.fold
        (fun a () acc -> if Hashtbl.mem block_tbl a then acc else a :: acc)
        discovered []
    in
    let fresh = List.filter (fun a -> not (List.mem a extra)) fresh in
    if fresh <> [] && round < max_rounds then
      go (round + 1) (fresh @ extra) visits updates
    else begin
      (* final pass: per-site facts, computed-transfer accounting, and
         the value diagnostics *)
      let facts = Hashtbl.create 256 in
      let resolved = ref 0 and unresolved = ref 0 in
      let xresolved = ref 0 and xtargets = ref [] in
      let diags = ref [] in
      List.iter
        (fun b ->
          match Hashtbl.find_opt solution b.Cfg.b_start with
          | None -> ()
          | Some s0 ->
              walk b s0 (fun st i eff ->
                  let at = i.Disasm.address in
                  (match Hashtbl.find_opt facts at with
                  | None -> Hashtbl.replace facts at st
                  | Some old -> Hashtbl.replace facts at (state_join old st));
                  (match resolve_computed i eff with
                  | Some (Const.Known a) when a >= lo && a < hi -> incr resolved
                  | Some (Const.Known a) when extern a ->
                      (* lands in a sibling image of the workload: the
                         destination is known, so this is not the valve
                         case — the caller re-analyzes the sibling with
                         [a] as an entry *)
                      incr resolved;
                      incr xresolved;
                      xtargets := a :: !xtargets
                  | Some Const.Bot -> ()
                  | Some _ -> incr unresolved
                  | None -> ());
                  (match i.Disasm.opcode with
                  | Some
                      ( Opcode.Prober | Opcode.Probew | Opcode.Probevmr
                      | Opcode.Probevmw ) ->
                      (match eff.vals.(0) with
                      | Const.Known v ->
                          diags :=
                            Probe_const_mode { at; mode = Mode.of_int (v land 3) }
                            :: !diags
                      | _ -> ())
                  | _ -> ());
                  match i.Disasm.opcode with
                  | None -> ()
                  | Some op ->
                      List.iteri
                        (fun idx ((access, _), spec) ->
                          match (access, spec) with
                          | ( (Opcode.Write | Opcode.Modify),
                              ( Disasm.Reg_deferred _
                              | Disasm.Disp { deferred = false; _ } ) )
                            when idx < Array.length eff.addrs -> (
                              match eff.addrs.(idx) with
                              | Const.Known a when a land 0x8000_0000 <> 0 ->
                                  diags := Const_kernel_write { at; addr = a } :: !diags
                              | _ -> ())
                          | _ -> ())
                        (try
                           List.combine (Opcode.operands op) i.Disasm.specs
                         with Invalid_argument _ -> [])))
        cfg.Cfg.blocks;
      let mode_sound = !unresolved = 0 in
      if not mode_sound then
        (* the valve: an unanalyzed computed transfer could land anywhere
           in any mode, so no mode fact can be trusted *)
        Hashtbl.iter
          (fun a s -> Hashtbl.replace facts a { s with modes = Modes.top })
          (Hashtbl.copy facts);
      (* mode-coverage diagnostics over the final facts *)
      List.iter
        (fun (i : Disasm.insn) ->
          match i.Disasm.opcode with
          | Some op when Classify.classify op <> Classify.Innocuous -> (
              match Hashtbl.find_opt facts i.Disasm.address with
              | None -> diags := Mode_unreachable { at = i.Disasm.address } :: !diags
              | Some s ->
                  if
                    Opcode.privileged op
                    && (not (Modes.mem Mode.Kernel s.modes))
                    && not (Modes.is_bot s.modes)
                  then
                    diags :=
                      Never_kernel { at = i.Disasm.address; modes = s.modes }
                      :: !diags)
          | _ -> ())
        (Cfg.all_sites cfg);
      let stats =
        {
          rounds = round;
          blocks = List.length cfg.Cfg.blocks;
          visits;
          updates;
          resolved = !resolved;
          xresolved = !xresolved;
          unresolved = !unresolved;
          escapes = Hashtbl.length esc;
          mode_sound;
        }
      in
      let diag_at = function
        | Mode_unreachable { at }
        | Never_kernel { at; _ }
        | Probe_const_mode { at; _ }
        | Const_kernel_write { at; _ } ->
            at
      in
      {
        cfg;
        facts;
        stats;
        diags = List.sort (fun a b -> compare (diag_at a) (diag_at b)) !diags;
        xtargets = List.sort_uniq compare !xtargets;
      }
    end
  in
  go 1 [] 0 0

(* ---- workload-wide analysis ------------------------------------------ *)

(* Analyze every image of a workload against the pooled escape set,
   iterating (bounded) until cross-image computed targets settle: a
   const-resolved JMP/JSB target in a sibling image is accepted instead
   of closing the valve, but is only sound once the sibling has been
   re-analyzed with that target as an unknown-mode entry.  Takes the
   plain per-image CFGs (no extra entries), which seed the escape set
   and stand in for every image whose entries the settle leaves
   unchanged; returns the per-image results of the final round and
   whether the iteration settled. *)
let analyze_images ?(clobber = fun _ -> None) (cfgs : Cfg.t list) =
  let escapes0 = List.concat_map escape_values cfgs in
  let ranges =
    List.map
      (fun (c : Cfg.t) ->
        let img = c.Cfg.image in
        (img.Cfg.base, img.Cfg.base + Bytes.length img.Cfg.code))
      cfgs
  in
  let extern a = List.exists (fun (lo, hi) -> a >= lo && a < hi) ranges in
  let max_settle = 4 in
  let rec settle iter known =
    let escapes = known @ escapes0 in
    let analyze_one (cfg : Cfg.t) =
      let img = cfg.Cfg.image in
      let lo = img.Cfg.base in
      let hi = lo + Bytes.length img.Cfg.code in
      match List.filter (fun a -> a >= lo && a < hi) known with
      | [] -> analyze ~clobber ~escapes ~extern ~cfg img
      | extra ->
          analyze ~clobber ~escapes ~extern
            {
              img with
              Cfg.entries = List.sort_uniq compare (extra @ img.Cfg.entries);
            }
    in
    let results = List.map analyze_one cfgs in
    let fresh =
      List.sort_uniq compare (List.concat_map (fun r -> r.xtargets) results)
      |> List.filter (fun a -> not (List.mem a known))
    in
    if fresh = [] then (results, true)
    else if iter >= max_settle then (results, false)
    else settle (iter + 1) (fresh @ known)
  in
  settle 1 []
