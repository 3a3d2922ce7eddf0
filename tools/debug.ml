(* debug — one-off debugging drivers behind a single subcommand
   dispatcher: `debug <tool>`.  Each subcommand used to be its own
   executable; they are kept here because they are handy when bisecting
   simulator regressions, without growing the dune stanza linearly. *)

open Vax_arch
open Vax_cpu
open Vax_dev
open Vax_vmm
open Vax_vmos
open Vax_workloads
module Asm = Vax_asm.Asm

(* single-CPU CHMK round trip: kernel sets up the SCB, drops to user
   mode, CHMK, handler returns *)
let run_chmk () =
  let cpu = Cpu.create () in
  let a = Asm.create ~origin:0x1000 in
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "chmk_handler"; Asm.R 0 ];
  Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.chmk) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x3000; Asm.Imm (Ipr.to_int Ipr.USP) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2800; Asm.Imm (Ipr.to_int Ipr.KSP) ];
  Asm.ins a Opcode.Pushl [ Asm.Imm 0x03C0_0000 ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "user_code"; Asm.Predec Asm.sp ];
  Asm.ins a Opcode.Rei [];
  Asm.label a "user_code";
  Asm.ins a Opcode.Movl [ Asm.Imm 0x111; Asm.R 1 ];
  Asm.ins a Opcode.Chmk [ Asm.Imm 9 ];
  Asm.ins a Opcode.Movl [ Asm.Imm 0x222; Asm.R 2 ];
  Asm.label a "user_spin";
  Asm.ins a Opcode.Brb [ Asm.Branch "user_spin" ];
  Asm.label a "chmk_handler";
  Asm.ins a Opcode.Movl [ Asm.Deref Asm.sp; Asm.R 3 ];
  Asm.ins a Opcode.Addl2 [ Asm.Imm 4; Asm.R Asm.sp ];
  Asm.ins a Opcode.Rei [];
  let img = Asm.assemble a in
  Cpu.load cpu img.Asm.image_origin img.Asm.code;
  State.set_pc cpu.Cpu.state 0x1000;
  State.set_sp cpu.Cpu.state 0x2000;
  let st = cpu.Cpu.state in
  for i = 1 to 25 do
    let pc = State.pc st in
    ignore (Cpu.step cpu);
    Format.printf "%2d pc=%a -> pc=%a sp=%a %a@." i Word.pp pc Word.pp
      (State.pc st) Word.pp (State.sp st) Psl.pp st.State.psl
  done;
  List.iter (fun (n, v) -> Format.printf "%s = %x@." n v) img.Asm.symbols

(* CHMS into supervisor mode, stack-bank switching *)
let run_chms () =
  let cpu = Cpu.create () in
  let a = Asm.create ~origin:0x1000 in
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "sh"; Asm.R 0 ];
  Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.chms) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x3000; Asm.Imm (Ipr.to_int Ipr.USP) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2C00; Asm.Imm (Ipr.to_int Ipr.SSP) ];
  Asm.ins a Opcode.Pushl [ Asm.Imm 0x03C0_0000 ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "u"; Asm.Predec Asm.sp ];
  Asm.ins a Opcode.Rei [];
  Asm.label a "u";
  Asm.ins a Opcode.Chms [ Asm.Imm 0 ];
  Asm.label a "uspin";
  Asm.ins a Opcode.Brb [ Asm.Branch "uspin" ];
  Asm.align a 4;
  Asm.label a "sh";
  Asm.ins a Opcode.Movpsl [ Asm.R 5 ];
  Asm.ins a Opcode.Halt [];
  let img = Asm.assemble a in
  Cpu.load cpu 0x1000 img.Asm.code;
  State.set_pc cpu.Cpu.state 0x1000;
  State.set_sp cpu.Cpu.state 0x2000;
  let st = cpu.Cpu.state in
  try
    for i = 1 to 15 do
      let pc = State.pc st in
      ignore (Cpu.step cpu);
      Format.printf "%2d pc=%x -> %x sp=%x %a@." i pc (State.pc st)
        (State.sp st) Psl.pp st.State.psl
    done
  with State.Fault f ->
    Format.printf "FAULT %a sp=%x banks=%x %x %x %x %x@." State.pp_fault f
      (State.sp st) st.State.sp_bank.(0) st.State.sp_bank.(1)
      st.State.sp_bank.(2) st.State.sp_bank.(3) st.State.sp_bank.(4)

(* render every conformance table and figure *)
let run_conf () =
  let fmt = Format.std_formatter in
  Conformance.table1 fmt;
  Format.pp_print_newline fmt ();
  Conformance.table2 fmt;
  Format.pp_print_newline fmt ();
  Conformance.table3 fmt;
  Format.pp_print_newline fmt ();
  Conformance.table4 fmt;
  Format.pp_print_newline fmt ();
  Conformance.figure1 fmt;
  Conformance.figure2 fmt;
  Conformance.figure3 fmt

(* PROBEW against a read-only shadow PTE (the E6 rejected alternative) *)
let run_e6 () =
  let m = Machine.create ~variant:Variant.Virtualizing ~memory_pages:4096 () in
  let config = { Vmm.default_config with ro_shadow_scheme = true } in
  let vmm = Vmm.create ~config m in
  let a = Asm.create ~origin:0x200 in
  Asm.ins a Opcode.Movl
    [
      Asm.Imm (Pte.make ~modify:false ~prot:Protection.UW ~pfn:16 ());
      Asm.Abs 0x2000;
    ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2000; Asm.Imm (Ipr.to_int Ipr.SBR) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 1; Asm.Imm (Ipr.to_int Ipr.SLR) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 1; Asm.Imm (Ipr.to_int Ipr.MAPEN) ];
  Asm.ins a Opcode.Tstl [ Asm.Abs 0x8000_0000 ];
  Asm.ins a Opcode.Probew [ Asm.Lit 0; Asm.Lit 4; Asm.Abs 0x8000_0000 ];
  Asm.ins a Opcode.Movpsl [ Asm.R 4 ];
  Asm.ins a Opcode.Halt [];
  let img = Asm.assemble a in
  let vm =
    Vmm.add_vm vmm ~name:"p" ~memory_pages:64 ~disk_blocks:8
      ~images:[ (0x200, img.Asm.code) ]
      ~start_pc:0x200 ()
  in
  ignore (Vmm.run vmm ~max_cycles:2_000_000 ());
  (match vm.Vm.run_state with
  | Vm.Halted_vm r -> Printf.printf "halted: %s\n" r
  | _ -> Printf.printf "not halted\n");
  let psl = vm.Vm.saved_regs.(4) in
  Format.printf "psl=%a Z=%b@." Psl.pp psl (Psl.z psl);
  (match Shadow.shadow_pte_addr vm 0x8000_0000 with
  | Some pa ->
      Format.printf "shadow pte: %a@." Pte.pp
        (Vax_mem.Phys_mem.read_long m.Machine.phys pa)
  | None -> print_endline "no shadow addr");
  Format.printf "%a@." Vmm.pp_vm_stats vm

(* chase the first reserved-operand fault in the editing workload *)
let run_edit () =
  let b = Minivms.build ~programs:[ Programs.editing ~ident:1 ~rounds:100 ] () in
  let m = Machine.create ~memory_pages:1024 ~disk_blocks:64 () in
  List.iter (fun (pa, d) -> Machine.load m pa d) b.Minivms.images;
  Machine.start m ~pc:b.Minivms.entry ~sp:0xC00;
  let st = m.Machine.cpu in
  let resop () =
    State.exception_count st Scb.reserved_operand > 0
  in
  let last_pcs = Array.make 16 0 in
  let i = ref 0 in
  (try
     while not (resop ()) do
       last_pcs.(!i land 15) <- State.pc st;
       incr i;
       match Exec.step st with
       | Exec.Stepped -> Sched.run_due m.Machine.sched
       | _ -> raise Exit
     done
   with Exit -> ());
  Format.printf "resop after %d steps, pc=%x@." !i (State.pc st);
  for k = 0 to 15 do
    Format.printf "pc[-%d]=%x@." (15 - k) last_pcs.((!i + k) land 15)
  done;
  List.iter
    (fun (n, v) -> if String.length n < 14 then Format.printf "%s=%x@." n v)
    b.Minivms.kernel.Asm.symbols

(* editing workload summary: outcome, console, exception vectors *)
let run_edit2 () =
  let b = Minivms.build ~programs:[ Programs.editing ~ident:1 ~rounds:100 ] () in
  let m = Runner.run_bare b in
  Format.printf "cycles=%d has1=%b outcome=%a@." m.Runner.total_cycles
    (String.contains m.Runner.console '1')
    Machine.pp_outcome m.Runner.outcome;
  List.iter
    (fun (v, n) -> Format.printf "vector %s: %d@." (Scb.name v) n)
    (State.exception_counts m.Runner.machine.Machine.cpu)

(* per-MTPR-to-IPL cost, bare versus VM versus VM+assist *)
let run_ipl () =
  let run ?config label built =
    let base = Runner.run_bare built in
    let vm = Runner.run_vm ?config built in
    Printf.printf "%s: bare=%d vm=%d ratio=%.1fx\n" label
      base.Runner.total_cycles vm.Runner.total_cycles
      (float vm.Runner.total_cycles /. float base.Runner.total_cycles)
  in
  (* difference of two sizes isolates the per-iteration cost *)
  let b1 = Minivms.build ~programs:[ Programs.ipl_storm ~iterations:200 ] () in
  let b2 = Minivms.build ~programs:[ Programs.ipl_storm ~iterations:2200 ] () in
  let m f b = (f b).Runner.total_cycles in
  let bare1 = m Runner.run_bare b1 and bare2 = m Runner.run_bare b2 in
  let vm1 = m (Runner.run_vm ?config:None) b1
  and vm2 = m (Runner.run_vm ?config:None) b2 in
  let assist = { Vmm.default_config with ipl_assist = true } in
  let av1 = m (Runner.run_vm ~config:assist) b1
  and av2 = m (Runner.run_vm ~config:assist) b2 in
  let per x1 x2 = float (x2 - x1) /. 2000.0 /. 2.0 (* two MTPRs per iter *) in
  Printf.printf
    "per-MTPR-to-IPL: bare=%.1f vm=%.1f (%.1fx) vm+assist=%.1f (%.1fx)\n"
    (per bare1 bare2) (per vm1 vm2)
    (per vm1 vm2 /. per bare1 bare2)
    (per av1 av2)
    (per av1 av2 /. per bare1 bare2);
  run "syscall_storm"
    (Minivms.build ~programs:[ Programs.syscall_storm ~iterations:500 ] ())

(* boot the hello workload bare and in a VM *)
let run_minivms () =
  let built = Minivms.build ~programs:[ Programs.hello ~ident:1 ] () in
  Printf.printf "kernel size: %d bytes\n"
    (Bytes.length built.Minivms.kernel.Asm.code);
  let m = Runner.run_bare ~max_cycles:3_000_000 built in
  Format.printf "bare: %a cycles=%d instr=%d@.console: %S@."
    Machine.pp_outcome m.Runner.outcome m.Runner.total_cycles
    m.Runner.instructions m.Runner.console;
  let mv = Runner.run_vm ~max_cycles:20_000_000 built in
  Format.printf "vm:   %a cycles=%d instr=%d@.console: %S@."
    Machine.pp_outcome mv.Runner.outcome mv.Runner.total_cycles
    mv.Runner.instructions mv.Runner.console;
  match mv.Runner.vm with
  | Some vm -> Format.printf "%a@." Vmm.pp_vm_stats vm
  | None -> ()

(* the standard mix, bare versus VM, with wall-clock timing *)
let run_mix () =
  let built =
    Minivms.build
      ~programs:
        [
          Programs.editing ~ident:1 ~rounds:40;
          Programs.transaction ~ident:2 ~count:30;
          Programs.compute ~ident:3 ~iterations:3000;
        ]
      ()
  in
  let t0 = Unix.gettimeofday () in
  let mb = Runner.run_bare built in
  let t1 = Unix.gettimeofday () in
  Format.printf "bare: %a cycles=%d instr=%d wall=%.2fs@."
    Machine.pp_outcome mb.Runner.outcome mb.Runner.total_cycles
    mb.Runner.instructions (t1 -. t0);
  Format.printf "bare console: %S@." mb.Runner.console;
  let mv = Runner.run_vm built in
  let t2 = Unix.gettimeofday () in
  Format.printf "vm: %a cycles=%d (guest %d, monitor %d) instr=%d wall=%.2fs@."
    Machine.pp_outcome mv.Runner.outcome mv.Runner.total_cycles
    mv.Runner.guest_cycles mv.Runner.monitor_cycles mv.Runner.instructions
    (t2 -. t1);
  Format.printf "vm console: %S@." mv.Runner.console;
  (match mv.Runner.vm with
  | Some vm -> Format.printf "%a@." Vmm.pp_vm_stats vm
  | None -> ());
  Format.printf "ratio: %.2f@." (Runner.ratio ~vm:mv ~bare:mb)

(* io_storm under emulated memory-mapped I/O *)
let run_mmio () =
  let built =
    Minivms.build ~force_mmio:true
      ~programs:[ Programs.io_storm ~ident:2 ~count:4 ]
      ()
  in
  let m =
    Runner.run_vm
      ~config:{ Vmm.default_config with default_io_mode = Vm.Mmio_io }
      built
  in
  Format.printf "outcome=%a console=%S@." Machine.pp_outcome m.Runner.outcome
    m.Runner.console;
  match m.Runner.vm with
  | Some vm -> Format.printf "%a@." Vmm.pp_vm_stats vm
  | None -> ()

(* two editing processes under a 2-tick quantum, plus a sleep syscall *)
let run_sched () =
  let b =
    Minivms.build ~quantum:2
      ~programs:
        [ Programs.editing ~ident:1 ~rounds:25; Programs.editing ~ident:2 ~rounds:25 ]
      ()
  in
  let m = Runner.run_bare b in
  Format.printf "outcome=%a cycles=%d@.console=%S@." Machine.pp_outcome
    m.Runner.outcome m.Runner.total_cycles m.Runner.console;
  (* sleep test *)
  let prog =
    let a = Asm.create ~origin:0 in
    Asm.ins a Opcode.Movl [ Asm.Imm 3; Asm.R 1 ];
    Userland.chmk a Userland.Sys.sleep;
    Userland.sys_putc_imm a 'w';
    Userland.sys_exit a;
    { Minivms.prog_name = "s"; prog_image = Asm.assemble a; prog_data_pages = 1 }
  in
  let m2 = Runner.run_bare (Minivms.build ~programs:[ prog ] ()) in
  Format.printf "sleep bare: outcome=%a console=%S cycles=%d@."
    Machine.pp_outcome m2.Runner.outcome m2.Runner.console
    m2.Runner.total_cycles

(* kernel data page after a sleeping process exits *)
let run_sleep () =
  let prog =
    let a = Asm.create ~origin:0 in
    Asm.ins a Opcode.Movl [ Asm.Imm 3; Asm.R 1 ];
    Userland.chmk a Userland.Sys.sleep;
    Userland.sys_putc_imm a 'w';
    Userland.sys_exit a;
    { Minivms.prog_name = "s"; prog_image = Asm.assemble a; prog_data_pages = 1 }
  in
  let m = Runner.run_bare (Minivms.build ~programs:[ prog ] ()) in
  let phys = m.Runner.machine.Machine.phys in
  let rd off = Vax_mem.Phys_mem.read_long phys (0x600 + off) in
  Printf.printf "uptime=%d current=%d nproc=%d quantum=%d\n" (rd 0) (rd 4)
    (rd 8) (rd 12);
  Printf.printf "state0=%d wake0=%d is_virtual=%d\n" (rd 48) (rd 80) (rd 24);
  Printf.printf "final pc=%x psl cur=%s\n"
    (State.pc m.Runner.machine.Machine.cpu)
    (Mode.name (Psl.cur m.Runner.machine.Machine.cpu.State.psl))

(* two VMs: install one VM's shadow tables and translate by hand *)
let run_two () =
  let m = Machine.create ~variant:Variant.Virtualizing ~memory_pages:4096 () in
  let vmm = Vmm.create m in
  let mk tag =
    let a = Asm.create ~origin:0x200 in
    Asm.ins a Opcode.Movl [ Asm.Imm tag; Asm.R 0 ];
    Asm.ins a Opcode.Halt [];
    Asm.assemble a
  in
  let img_a = mk 1 and img_b = mk 2 in
  let vm_a =
    Vmm.add_vm vmm ~name:"a" ~memory_pages:64 ~disk_blocks:8
      ~images:[ (0x200, img_a.Asm.code) ]
      ~start_pc:0x200 ()
  in
  let _vm_b =
    Vmm.add_vm vmm ~name:"b" ~memory_pages:64 ~disk_blocks:8
      ~images:[ (0x200, img_b.Asm.code) ]
      ~start_pc:0x200 ()
  in
  (* manually install A's tables and translate 0x200 *)
  let mmu = m.Machine.mmu in
  Shadow.install_mm_registers mmu vm_a;
  Format.printf "p0br=%x p0lr=%d sbr=%x slr=%d mapen=%b@."
    (Vax_mem.Mmu.p0br mmu) (Vax_mem.Mmu.p0lr mmu) (Vax_mem.Mmu.sbr mmu)
    (Vax_mem.Mmu.slr mmu) (Vax_mem.Mmu.mapen mmu);
  (match Vax_mem.Mmu.read_pte mmu 0x200 with
  | Ok (pte, pa) -> Format.printf "pte for 200: %a at %x@." Pte.pp pte pa
  | Error f -> Format.printf "pte fault: %a@." Vax_mem.Mmu.pp_fault f);
  match Vax_mem.Mmu.translate mmu ~mode:Mode.Executive ~write:false 0x200 with
  | Ok pa -> Format.printf "translate ok -> %x@." pa
  | Error f -> Format.printf "translate fault: %a@." Vax_mem.Mmu.pp_fault f

(* summarize a vax-trace/1 JSONL stream: per-kind event counts, plus the
   guest PCs that cause the most traps and VM exits *)
let run_trace_summary path =
  let module Json = Vax_obs.Json in
  let ic = open_in path in
  let kind_counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let pc_counts : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump tbl key =
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let events = ref 0 in
  let bad = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Json.parse line with
         | exception Json.Parse_error msg ->
             incr bad;
             Printf.eprintf "bad line: %s (%s)\n" line msg
         | j -> (
             match Json.member "ev" j with
             | Some (Json.Str ev) ->
                 incr events;
                 bump kind_counts ev;
                 (match (ev, Json.member "pc" j) with
                 | ( ( "trap-vm-emulation" | "trap-privileged" | "trap-modify"
                     | "vm-exit" | "chm" ),
                     Some (Json.Num pc) ) ->
                     bump pc_counts (ev, int_of_float pc)
                 | _ -> ())
             | _ -> (
                 (* the header line carries the schema *)
                 match Json.member "schema" j with
                 | Some (Json.Str s) -> Printf.printf "schema: %s\n" s
                 | _ -> incr bad))
     done
   with End_of_file -> close_in ic);
  Printf.printf "%d events (%d malformed lines)\n" !events !bad;
  let rows =
    List.sort (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kind_counts [])
  in
  List.iter (fun (k, v) -> Printf.printf "  %-18s %8d\n" k v) rows;
  let top =
    List.sort (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) pc_counts [])
  in
  if top <> [] then begin
    Printf.printf "top trap/exit sites:\n";
    List.iteri
      (fun i ((ev, pc), n) ->
        if i < 10 then Printf.printf "  pc=%08x %-18s %8d\n" pc ev n)
      top
  end;
  if !bad > 0 then exit 1

let tools =
  [
    ("chmk", run_chmk, "single-CPU CHMK round trip");
    ("chms", run_chms, "CHMS into supervisor mode, stack banks");
    ("conf", run_conf, "render all conformance tables and figures");
    ("e6", run_e6, "PROBEW against a read-only shadow PTE");
    ("edit", run_edit, "chase a reserved-operand fault in editing");
    ("edit2", run_edit2, "editing workload summary");
    ("ipl", run_ipl, "per-MTPR-to-IPL cost, bare/VM/assist");
    ("minivms", run_minivms, "boot hello bare and in a VM");
    ("mix", run_mix, "standard mix bare versus VM, timed");
    ("mmio", run_mmio, "io_storm under emulated memory-mapped I/O");
    ("sched", run_sched, "round-robin scheduling and sleep");
    ("sleep", run_sleep, "kernel data page after sleep/exit");
    ("two", run_two, "two VMs, manual shadow-table install");
  ]

let usage () =
  prerr_endline "usage: debug <tool>";
  prerr_endline "       debug trace <file.jsonl>";
  List.iter
    (fun (name, _, doc) -> Printf.eprintf "  %-8s %s\n" name doc)
    tools;
  Printf.eprintf "  %-8s %s\n" "trace" "summarize a vax-trace/1 JSONL stream"

let () =
  match Sys.argv with
  | [| _; "trace"; path |] -> run_trace_summary path
  | [| _; name |] -> (
      match List.find_opt (fun (n, _, _) -> n = name) tools with
      | Some (_, f, _) -> f ()
      | None ->
          Printf.eprintf "unknown tool: %s\n" name;
          usage ();
          exit 1)
  | _ ->
      usage ();
      exit 1
