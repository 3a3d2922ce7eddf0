(* Tests for vaxflow, the flow-sensitive abstract interpretation behind
   mode-aware trap prediction and computed control flow: the abstract
   domains and their lattice laws, the generic worklist solver, the
   one-instruction transfer function, end-to-end mode refinement,
   computed-jump discovery, the unresolved-transfer soundness valve,
   escaped-address seeding, the value diagnostics, and the oracle and
   metrics integration. *)

open Vax_arch
open Vax_cpu
open Vax_dev
open Vax_analysis
open Vax_workloads
module Asm = Vax_asm.Asm
module Disasm = Vax_asm.Disasm

let insn_of op operands =
  let a = Asm.create ~origin:0 in
  Asm.ins a op operands;
  let img = Asm.assemble a in
  List.hd (Disasm.decode_all img.Asm.code ~base:0)

let check_const msg expected actual =
  Alcotest.(check bool) msg true (Absdom.Const.equal expected actual)

let kernel_state () =
  { Absdom.modes = Absdom.Modes.only Mode.Kernel; regs = Absdom.top_regs () }

(* --- abstract domains ------------------------------------------------- *)

let test_modes_lattice () =
  let k = Absdom.Modes.only Mode.Kernel in
  let u = Absdom.Modes.only Mode.User in
  Alcotest.(check bool) "kernel_only" true (Absdom.Modes.kernel_only k);
  Alcotest.(check bool) "user is not kernel_only" false
    (Absdom.Modes.kernel_only u);
  let ku = Absdom.Modes.join k u in
  Alcotest.(check bool) "join keeps kernel" true (Absdom.Modes.mem Mode.Kernel ku);
  Alcotest.(check bool) "join keeps user" true (Absdom.Modes.mem Mode.User ku);
  Alcotest.(check bool) "join omits executive" false
    (Absdom.Modes.mem Mode.Executive ku);
  Alcotest.(check int) "two names" 2 (List.length (Absdom.Modes.names ku));
  Alcotest.(check bool) "bot" true (Absdom.Modes.is_bot Absdom.Modes.bot);
  Alcotest.(check bool) "top holds every mode" true
    (List.for_all (fun m -> Absdom.Modes.mem m Absdom.Modes.top) Mode.all);
  (* the flow fact seen by the predictor *)
  let fk = Absdom.flow_fact_of (kernel_state ()) in
  Alcotest.(check bool) "kernel fact: may_kernel" true fk.Classify.may_kernel;
  Alcotest.(check bool) "kernel fact: not may_other" false fk.Classify.may_other;
  let fu =
    Absdom.flow_fact_of { (kernel_state ()) with Absdom.modes = u }
  in
  Alcotest.(check bool) "user fact: not may_kernel" false fu.Classify.may_kernel;
  Alcotest.(check bool) "user fact: may_other" true fu.Classify.may_other

let test_const_lattice () =
  let open Absdom.Const in
  check_const "join same" (Known 5) (join (Known 5) (Known 5));
  check_const "join differing" Top (join (Known 5) (Known 6));
  check_const "bot is identity" (Known 5) (join Bot (Known 5));
  check_const "top absorbs" Top (join Top (Known 5));
  check_const "map wraps to 32 bits" (Known 0) (map succ (Known 0xFFFF_FFFF));
  check_const "map2 known" (Known 7) (map2 ( + ) (Known 3) (Known 4));
  check_const "map2 bot propagates" Bot (map2 ( + ) (Known 3) Bot);
  check_const "map2 top propagates" Top (map2 ( + ) (Known 3) Top)

(* --- generic worklist solver ------------------------------------------ *)

(* 1 -> 2 -> 3 -> 2 (back edge), bitmask lattice: the least fixpoint is
   reached despite the cycle *)
let test_solver_fixpoint () =
  let lattice = { Dataflow.join = ( lor ); equal = Int.equal } in
  let transfer n s =
    match n with
    | 1 -> [ (2, s lor 2) ]
    | 2 -> [ (3, s lor 4) ]
    | 3 -> [ (2, s) ]
    | _ -> []
  in
  let states, stats = Dataflow.solve ~lattice ~transfer ~seeds:[ (1, 1) ] in
  Alcotest.(check int) "node 1" 1 (Hashtbl.find states 1);
  Alcotest.(check int) "node 2 (joined over back edge)" 7 (Hashtbl.find states 2);
  Alcotest.(check int) "node 3" 7 (Hashtbl.find states 3);
  Alcotest.(check int) "three nodes" 3 stats.Dataflow.nodes;
  Alcotest.(check bool) "revisited the cycle" true (stats.Dataflow.visits > 3)

(* --- one-instruction transfer ----------------------------------------- *)

let test_step_const_tracking () =
  let eff =
    Absdom.step (kernel_state ()) (insn_of Opcode.Movl [ Asm.Imm 5; Asm.R 0 ])
  in
  check_const "movl #5,r0" (Absdom.Const.Known 5) eff.Absdom.post.Absdom.regs.(0);
  Alcotest.(check bool) "mode untouched" true
    (Absdom.Modes.kernel_only eff.Absdom.post.Absdom.modes);
  let eff =
    Absdom.step eff.Absdom.post
      (insn_of Opcode.Addl3 [ Asm.Imm 2; Asm.R 0; Asm.R 1 ])
  in
  check_const "addl3 #2,r0,r1" (Absdom.Const.Known 7)
    eff.Absdom.post.Absdom.regs.(1);
  let eff =
    Absdom.step eff.Absdom.post
      (insn_of Opcode.Ashl [ Asm.Imm 4; Asm.R 0; Asm.R 2 ])
  in
  check_const "ashl #4,r0,r2" (Absdom.Const.Known 0x50)
    eff.Absdom.post.Absdom.regs.(2);
  let eff = Absdom.step eff.Absdom.post (insn_of Opcode.Clrl [ Asm.R 3 ]) in
  check_const "clrl r3" (Absdom.Const.Known 0) eff.Absdom.post.Absdom.regs.(3)

let test_step_side_effects () =
  (* autoincrement advances the register even though the loaded value is
     unknown *)
  let st = Absdom.top_state () in
  st.Absdom.regs.(3) <- Absdom.Const.Known 0x100;
  let eff = Absdom.step st (insn_of Opcode.Movl [ Asm.Postinc 3; Asm.R 4 ]) in
  check_const "(r3)+ advanced by width" (Absdom.Const.Known 0x104)
    eff.Absdom.post.Absdom.regs.(3);
  check_const "loaded value unknown" Absdom.Const.Top
    eff.Absdom.post.Absdom.regs.(4);
  (* PUSHL tracks SP *)
  let st = Absdom.top_state () in
  st.Absdom.regs.(14) <- Absdom.Const.Known 0x200;
  let eff = Absdom.step st (insn_of Opcode.Pushl [ Asm.R 0 ]) in
  check_const "pushl drops sp by 4" (Absdom.Const.Known 0x1FC)
    eff.Absdom.post.Absdom.regs.(14);
  (* CHMK: the handler may clobber any register, but control resumes at
     the fall-through in the original mode *)
  let st = kernel_state () in
  st.Absdom.regs.(0) <- Absdom.Const.Known 1;
  let eff = Absdom.step st (insn_of Opcode.Chmk [ Asm.Imm 1 ]) in
  check_const "chmk clobbers r0" Absdom.Const.Top eff.Absdom.post.Absdom.regs.(0);
  Alcotest.(check bool) "chmk keeps the mode" true
    (Absdom.Modes.kernel_only eff.Absdom.post.Absdom.modes)

let test_spec_ends () =
  let i = insn_of Opcode.Movl [ Asm.Imm 0x11223344; Asm.R 0 ] in
  Alcotest.(check (list int)) "movl #imm32,r0" [ 6; 7 ] (Disasm.spec_ends i);
  let i = insn_of Opcode.Movl [ Asm.Disp (4, 2); Asm.R 0 ] in
  Alcotest.(check (list int)) "movl 4(r2),r0" [ 3; 4 ] (Disasm.spec_ends i)

(* --- end-to-end mode refinement --------------------------------------- *)

let analyze_image ?(origin = 0x1000) ~entry_mode build =
  let a = Asm.create ~origin in
  build a;
  let img = Asm.assemble a in
  let image =
    { (Cfg.of_asm ~entry_mode "t" img) with Cfg.entries = [ origin ] }
  in
  (image, Absdom.analyze image)

let test_mode_refinement_kernel () =
  let _, r =
    analyze_image ~entry_mode:Mode.Kernel (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x1F; Asm.Imm 18 ];
        Asm.ins a Opcode.Halt [])
  in
  Alcotest.(check bool) "mode_sound" true r.Absdom.stats.Absdom.mode_sound;
  let s = Hashtbl.find r.Absdom.facts 0x1000 in
  Alcotest.(check bool) "kernel-only fact at mtpr" true
    (Absdom.Modes.kernel_only s.Absdom.modes);
  let f = Absdom.flow_fact_of s in
  let mtpr = insn_of Opcode.Mtpr [ Asm.Imm 0x1F; Asm.Imm 18 ] in
  (* VM assumption: the kernel-only site takes the VM-emulation trap and
     never the ordinary privileged fault *)
  Alcotest.(check (list string)) "vm refined to emulation trap"
    [ State.trap_kind_name State.Trap_vm_emulation ]
    (List.map State.trap_kind_name
       (Classify.predict ~mode:Classify.Vm ~flow:f mtpr));
  (* bare assumption: kernel mode never faults on MTPR *)
  Alcotest.(check int) "bare refined to nothing" 0
    (List.length (Classify.predict ~mode:Classify.Bare ~flow:f mtpr));
  (* ... except WAIT, whose bare microcode faults even from kernel mode *)
  Alcotest.(check (list string)) "bare wait survives refinement"
    [ State.trap_kind_name State.Trap_privileged ]
    (List.map State.trap_kind_name
       (Classify.predict ~mode:Classify.Bare ~flow:f (insn_of Opcode.Wait [])))

let test_mode_refinement_user () =
  let _, r =
    analyze_image ~entry_mode:Mode.User (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0; Asm.Imm 18 ];
        Asm.ins a Opcode.Halt [])
  in
  Alcotest.(check bool) "never-kernel diagnostic" true
    (List.exists
       (function Absdom.Never_kernel { at = 0x1000; _ } -> true | _ -> false)
       r.Absdom.diags);
  let f = Absdom.flow_fact_of (Hashtbl.find r.Absdom.facts 0x1000) in
  let mtpr = insn_of Opcode.Mtpr [ Asm.Imm 0; Asm.Imm 18 ] in
  (* a VM-user privileged site takes the ordinary privileged fault, never
     the VM-emulation trap *)
  Alcotest.(check (list string)) "vm-user refined to privileged"
    [ State.trap_kind_name State.Trap_privileged ]
    (List.map State.trap_kind_name
       (Classify.predict ~mode:Classify.Vm ~flow:f mtpr))

(* --- computed control flow -------------------------------------------- *)

let test_computed_jump_discovery () =
  (* MOVL #target, R0; JMP (R0) over a data blob: recursive descent alone
     cannot see the edge, the constant domain resolves it *)
  let image, r =
    analyze_image ~origin:0x3000 ~entry_mode:Mode.Kernel (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 0x300D; Asm.R 0 ];
        (* 7 bytes *)
        Asm.ins a Opcode.Jmp [ Asm.Deref 0 ];
        (* 2 bytes *)
        Asm.long a 0xDEADBEEF;
        Asm.ins a Opcode.Halt [] (* at 0x300D *))
  in
  let cfg0 = Cfg.analyze image in
  Alcotest.(check bool) "flowless: halt unreachable" false
    (Hashtbl.mem cfg0.Cfg.reachable 0x300D);
  Alcotest.(check bool) "flow: halt reachable" true
    (Hashtbl.mem r.Absdom.cfg.Cfg.reachable 0x300D);
  Alcotest.(check int) "one resolved computed target" 1
    r.Absdom.stats.Absdom.resolved;
  Alcotest.(check int) "no unresolved target" 0 r.Absdom.stats.Absdom.unresolved;
  Alcotest.(check bool) "took a discovery round" true
    (r.Absdom.stats.Absdom.rounds >= 2);
  Alcotest.(check bool) "mode_sound" true r.Absdom.stats.Absdom.mode_sound;
  Alcotest.(check bool) "fact at the discovered target" true
    (Hashtbl.mem r.Absdom.facts 0x300D);
  let unreach cfg =
    List.fold_left
      (fun n -> function Cfg.Unreachable { count; _ } -> n + count | _ -> n)
      0 cfg.Cfg.diags
  in
  Alcotest.(check bool) "unreachable bytes shrank" true
    (unreach r.Absdom.cfg < unreach cfg0)

let test_unresolved_valve () =
  (* JMP (R5) with R5 unknown: the transfer could land anywhere in any
     mode, so every mode fact must be widened to top *)
  let _, r =
    analyze_image ~origin:0x4000 ~entry_mode:Mode.Kernel (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0; Asm.Imm 18 ];
        Asm.ins a Opcode.Jmp [ Asm.Deref 5 ])
  in
  Alcotest.(check int) "one unresolved target" 1
    r.Absdom.stats.Absdom.unresolved;
  Alcotest.(check bool) "valve closed" false r.Absdom.stats.Absdom.mode_sound;
  let s = Hashtbl.find r.Absdom.facts 0x4000 in
  Alcotest.(check int) "mtpr fact widened to top" Absdom.Modes.top
    s.Absdom.modes

let test_escape_resets_mode () =
  (* materializing the image's own origin (here as an immediate) makes
     the origin an unknown-mode entry: the kernel seed joins with top *)
  let _, r =
    analyze_image ~origin:0x5000 ~entry_mode:Mode.Kernel (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 0x5000; Asm.R 0 ];
        Asm.ins a Opcode.Mtpr [ Asm.R 0; Asm.Imm 18 ];
        Asm.ins a Opcode.Halt [])
  in
  Alcotest.(check bool) "escape counted" true (r.Absdom.stats.Absdom.escapes > 0);
  let s = Hashtbl.find r.Absdom.facts 0x5000 in
  Alcotest.(check int) "origin mode widened by the escape" Absdom.Modes.top
    s.Absdom.modes

let test_value_diags () =
  let _, r =
    analyze_image ~origin:0x6000 ~entry_mode:Mode.Kernel (fun a ->
        Asm.ins a Opcode.Prober [ Asm.Lit 3; Asm.Imm 4; Asm.Deref 1 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 0x8000_0040; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 7; Asm.Deref 0 ];
        Asm.ins a Opcode.Halt [])
  in
  Alcotest.(check bool) "probe with constant mode operand" true
    (List.exists
       (function
         | Absdom.Probe_const_mode { mode = Mode.User; _ } -> true
         | _ -> false)
       r.Absdom.diags);
  Alcotest.(check bool) "write through constant kernel address" true
    (List.exists
       (function
         | Absdom.Const_kernel_write { addr = 0x8000_0040; _ } -> true
         | _ -> false)
       r.Absdom.diags)

(* Image 1 const-resolves a JMP into image 2, and both execute MTPR. *)
let cross_image_pair () =
  let build_image ~origin f =
    let a = Asm.create ~origin in
    f a;
    Cfg.of_asm ~entry_mode:Mode.Kernel
      (Printf.sprintf "img%x" origin)
      (Asm.assemble a)
  in
  let img1 =
    build_image ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x1F; Asm.Imm 18 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 0x2000; Asm.R 0 ];
        Asm.ins a Opcode.Jmp [ Asm.Deref 0 ])
  in
  let img2 =
    build_image ~origin:0x2000 (fun a ->
        Asm.ins a Opcode.Mtpr [ Asm.Imm 0x1F; Asm.Imm 18 ];
        Asm.ins a Opcode.Halt [])
  in
  (img1, img2)

let test_cross_image_resolution () =
  (* a single-image analysis must close the valve (the target is outside
     the image), while the workload-wide oracle resolves it against the
     sibling and keeps the mode facts of both images *)
  let img1, img2 = cross_image_pair () in
  (* alone, the resolved-but-foreign target widens every mode fact *)
  let solo = Absdom.analyze img1 in
  Alcotest.(check int) "solo: counted unresolved" 1
    solo.Absdom.stats.Absdom.unresolved;
  Alcotest.(check bool) "solo: valve closed" false
    solo.Absdom.stats.Absdom.mode_sound;
  (* the workload-wide pass resolves it against the sibling image *)
  let o =
    Oracle.of_images ~flow:true ~name:"xi" ~mode:Classify.Vm [ img1; img2 ]
  in
  (match o.Oracle.flow with
  | None -> Alcotest.fail "no flow stats"
  | Some f ->
      Alcotest.(check bool) "workload: mode_sound" true f.Oracle.fs_mode_sound;
      Alcotest.(check int) "workload: no unresolved target" 0
        f.Oracle.fs_unresolved;
      Alcotest.(check bool) "workload: cross-image target counted" true
        (f.Oracle.fs_xresolved >= 1));
  (* the MTPR sites of both images keep kernel-only predictions: under
     the VM assumption they emulation-trap rather than privileged-fault,
     so exactly one kind is predicted per site *)
  List.iter
    (fun pc ->
      Alcotest.(check bool)
        (Printf.sprintf "refined prediction survives at %#x" pc)
        true
        (Oracle.Pc_table.mem o.Oracle.predicted pc))
    [ 0x1000; 0x2000 ]

(* The vaxlint report derives its flow sections from the same
   workload-wide analysis as the oracle, so on the cross-image case —
   where image 1 analyzed alone closes the valve — it must agree with
   the oracle's [fs_mode_sound] everywhere it reports one. *)
let test_report_matches_oracle () =
  let img1, img2 = cross_image_pair () in
  let images = [ img1; img2 ] in
  let o = Oracle.of_images ~flow:true ~name:"xi" ~mode:Classify.Vm images in
  let sound = (Option.get o.Oracle.flow).Oracle.fs_mode_sound in
  let report =
    Json.parse (Report.report ~mode:Classify.Vm ~workload:"xi" images)
  in
  let field k = function
    | Json.Obj kv -> List.assoc k kv
    | _ -> Alcotest.failf "report: %s is not in an object" k
  in
  let bool = function
    | Json.Bool b -> b
    | _ -> Alcotest.fail "report: expected a boolean"
  in
  Alcotest.(check bool) "precision mode_sound" sound
    (bool (field "mode_sound" (field "precision" report)));
  match field "images" report with
  | Json.Arr imgs ->
      Alcotest.(check int) "two images" 2 (List.length imgs);
      List.iter
        (fun img ->
          let name = match field "name" img with Json.Str n -> n | _ -> "?" in
          Alcotest.(check bool)
            (name ^ ": flow mode_sound")
            sound
            (bool (field "mode_sound" (field "flow" img))))
        imgs
  | _ -> Alcotest.fail "report: images is not an array"

(* --- oracle and metrics integration ----------------------------------- *)

let test_oracle_flow_precision () =
  let images = Runner.images_of_built (Catalog.build "hello") in
  let o = Oracle.of_images ~flow:true ~name:"hello" ~mode:Classify.Vm images in
  match o.Oracle.flow with
  | None -> Alcotest.fail "flow-sensitive oracle carries no flow stats"
  | Some f ->
      Alcotest.(check bool) "mode_sound on a real workload" true
        f.Oracle.fs_mode_sound;
      let pairs = Oracle.predicted_pairs o in
      Alcotest.(check bool) "flow never predicts more than flowless" true
        (pairs <= f.Oracle.fs_pairs_flowless);
      Alcotest.(check bool) "flow prunes VM pairs" true
        (pairs < f.Oracle.fs_pairs_flowless);
      Alcotest.(check bool) "refined sites exist" true
        (f.Oracle.fs_fact_sites > 0)

let test_runner_flow_metrics () =
  let m = Runner.run_bare (Catalog.build "hello") in
  let snap = Vax_obs.Metrics.snapshot m.Runner.machine.Machine.metrics in
  let get k =
    match List.assoc_opt k snap with
    | Some v -> v
    | None -> Alcotest.failf "missing metric %s" k
  in
  Alcotest.(check int) "analysis.flow.enabled" 1 (get "analysis.flow.enabled");
  Alcotest.(check int) "analysis.flow.mode_sound" 1
    (get "analysis.flow.mode_sound");
  Alcotest.(check bool) "analysis.flow.pairs_pruned > 0" true
    (get "analysis.flow.pairs_pruned" > 0);
  Alcotest.(check bool) "flow pairs consistent" true
    (get "analysis.flow.pairs" + get "analysis.flow.pairs_pruned"
    = get "analysis.flow.pairs_flowless")

let () =
  Alcotest.run "flow"
    [
      ( "domains",
        [
          Alcotest.test_case "mode lattice" `Quick test_modes_lattice;
          Alcotest.test_case "const lattice" `Quick test_const_lattice;
        ] );
      ( "solver",
        [ Alcotest.test_case "fixpoint over a cycle" `Quick test_solver_fixpoint ]
      );
      ( "step",
        [
          Alcotest.test_case "constant tracking" `Quick test_step_const_tracking;
          Alcotest.test_case "side effects" `Quick test_step_side_effects;
          Alcotest.test_case "spec ends" `Quick test_spec_ends;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "kernel entry" `Quick test_mode_refinement_kernel;
          Alcotest.test_case "user entry" `Quick test_mode_refinement_user;
        ] );
      ( "computed",
        [
          Alcotest.test_case "jump discovery" `Quick
            test_computed_jump_discovery;
          Alcotest.test_case "unresolved valve" `Quick test_unresolved_valve;
          Alcotest.test_case "escape seeding" `Quick test_escape_resets_mode;
          Alcotest.test_case "value diagnostics" `Quick test_value_diags;
          Alcotest.test_case "cross-image resolution" `Quick
            test_cross_image_resolution;
          Alcotest.test_case "report agrees with the oracle" `Quick
            test_report_matches_oracle;
        ] );
      ( "integration",
        [
          Alcotest.test_case "oracle precision" `Quick test_oracle_flow_precision;
          Alcotest.test_case "runner metrics" `Quick test_runner_flow_metrics;
        ] );
    ]
