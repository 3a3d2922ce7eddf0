(* Integration tests for MiniVMS: the guest OS booting on the standard
   VAX, the modified VAX, and inside a virtual machine — the paper's
   three compatibility requirements — plus its paging, scheduling and
   system-service behaviour. *)

open Vax_cpu
open Vax_vmos
open Vax_workloads

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let hello_build () =
  Minivms.build ~programs:[ Programs.hello ~ident:7 ] ()

let completed (m : Runner.measurement) =
  match (m.Runner.outcome, m.Runner.vm) with
  | Vax_dev.Machine.Halted, None -> true
  | Vax_dev.Machine.Stopped, Some vm -> (
      match vm.Vax_vmm.Vm.run_state with
      | Vax_vmm.Vm.Halted_vm "guest HALT" -> true
      | _ -> false)
  | _ -> false

let test_boots_on_standard_vax () =
  let m = Runner.run_bare (hello_build ()) in
  check_bool "completed" true (completed m);
  check_str "console" "hello 7\n$ hello 7\n" m.Runner.console

let test_boots_on_modified_vax () =
  (* the paper's compatibility goal: a standard OS runs unchanged on the
     modified machine (which uses the modify-fault discipline) *)
  let m = Runner.run_bare ~variant:Variant.Virtualizing (hello_build ()) in
  check_bool "completed" true (completed m);
  check_str "console" "hello 7\n$ hello 7\n" m.Runner.console

let test_boots_in_vm () =
  let m = Runner.run_vm (hello_build ()) in
  check_bool "completed" true (completed m);
  check_str "console" "hello 7\n$ hello 7\n" m.Runner.console

let test_three_way_equivalence_mixed () =
  (* a deterministic single-process workload gives identical console
     output in all three environments *)
  let build () =
    Minivms.build ~programs:[ Programs.transaction ~ident:3 ~count:10 ] ()
  in
  let bare = Runner.run_bare (build ()) in
  let modified = Runner.run_bare ~variant:Variant.Virtualizing (build ()) in
  let vm = Runner.run_vm (build ()) in
  check_bool "bare completed" true (completed bare);
  check_str "modified = standard" bare.Runner.console modified.Runner.console;
  check_str "vm = standard" bare.Runner.console vm.Runner.console

let test_demand_zero_paging () =
  (* editing writes across 16 demand-zero pages; under the modified VAX
     the kernel also services modify faults *)
  let build () =
    Minivms.build ~programs:[ Programs.editing ~ident:1 ~rounds:30 ] ()
  in
  let bare = Runner.run_bare ~variant:Variant.Virtualizing (build ()) in
  check_bool "completed" true (completed bare);
  check_bool "modify faults serviced" true
    (Vax_mem.Mmu.modify_faults_delivered bare.Runner.machine.Vax_dev.Machine.mmu
    > 0);
  let vm = Runner.run_vm (build ()) in
  check_bool "vm completed" true (completed vm);
  match vm.Runner.vm with
  | Some g ->
      check_bool "guest pager ran (faults reflected)" true
        (g.Vax_vmm.Vm.stats.Vax_vmm.Vm.reflected_faults > 0);
      check_bool "modify bits propagated" true
        (g.Vax_vmm.Vm.stats.Vax_vmm.Vm.modify_faults > 0)
  | None -> Alcotest.fail "no vm"

let test_scheduler_interleaves () =
  (* two chatty processes must interleave console output *)
  let build () =
    Minivms.build ~quantum:2
      ~programs:
        [
          Programs.editing ~ident:1 ~rounds:25;
          Programs.editing ~ident:2 ~rounds:25;
        ]
      ()
  in
  let m = Runner.run_bare (build ()) in
  check_bool "completed" true (completed m);
  check_bool "both processes finished" true
    (String.contains m.Runner.console '1' && String.contains m.Runner.console '2')

let test_disk_io_roundtrip_bare_and_vm () =
  let build () =
    Minivms.build ~programs:[ Programs.io_storm ~ident:5 ~count:6 ] ()
  in
  let bare = Runner.run_bare (build ()) in
  check_bool "bare io completed" true (completed bare);
  let vm = Runner.run_vm (build ()) in
  check_bool "vm io completed" true (completed vm);
  match vm.Runner.vm with
  | Some g -> check_int "kcall i/o requests" 12 g.Vax_vmm.Vm.stats.Vax_vmm.Vm.io_requests
  | None -> Alcotest.fail "no vm"

let test_mmio_guest_in_vm () =
  (* the same OS built to use memory-mapped I/O works in a VM through the
     VMM's instruction emulation (the expensive path of §4.4.3) *)
  let build () =
    Minivms.build ~force_mmio:true
      ~programs:[ Programs.io_storm ~ident:5 ~count:4 ]
      ()
  in
  let vm =
    Runner.run_vm
      ~config:
        { Vax_vmm.Vmm.default_config with default_io_mode = Vax_vmm.Vm.Mmio_io }
      (build ())
  in
  check_bool "completed" true (completed vm);
  match vm.Runner.vm with
  | Some g ->
      check_bool "MMIO emulations happened" true
        (g.Vax_vmm.Vm.stats.Vax_vmm.Vm.mmio_trap_count > 10)
  | None -> Alcotest.fail "no vm"

let test_sleep_and_wait () =
  (* sleep forces the guest idle; in a VM the idle loop uses WAIT *)
  let prog =
    let open Vax_arch in
    let a = Vax_asm.Asm.create ~origin:0 in
    Vax_asm.Asm.ins a Opcode.Movl [ Vax_asm.Asm.Imm 3; Vax_asm.Asm.R 1 ];
    Userland.chmk a Userland.Sys.sleep;
    Userland.chmk a Userland.Sys.uptime;
    Vax_asm.Asm.ins a Opcode.Movl [ Vax_asm.Asm.R 0; Vax_asm.Asm.R 6 ];
    Userland.sys_putc_imm a 'w';
    Userland.sys_exit a;
    {
      Minivms.prog_name = "sleeper";
      prog_image = Vax_asm.Asm.assemble a;
      prog_data_pages = 1;
    }
  in
  let m = Runner.run_vm (Minivms.build ~programs:[ prog ] ()) in
  check_bool "completed" true (completed m);
  check_str "woke up" "w" m.Runner.console;
  match m.Runner.vm with
  | Some g ->
      check_bool "WAIT used while idle" true
        (Vax_vmm.Vm.opcode_count g.Vax_vmm.Vm.stats Vax_arch.Opcode.Wait > 0)
  | None -> Alcotest.fail "no vm"

let test_bad_buffer_rejected () =
  (* PUTS of a kernel address must be rejected by the PROBE check, not
     leak kernel data *)
  let prog =
    let open Vax_arch in
    let a = Vax_asm.Asm.create ~origin:0 in
    Vax_asm.Asm.ins a Opcode.Movl
      [ Vax_asm.Asm.Imm 0x8000_0600; Vax_asm.Asm.R 1 ];
    Vax_asm.Asm.ins a Opcode.Movl [ Vax_asm.Asm.Imm 16; Vax_asm.Asm.R 2 ];
    Userland.chmk a Userland.Sys.puts;
    (* R0 = -1 expected; print 'N' if so *)
    Vax_asm.Asm.ins a Opcode.Tstl [ Vax_asm.Asm.R 0 ];
    Vax_asm.Asm.ins a Opcode.Bgeq [ Vax_asm.Asm.Branch "leak" ];
    Userland.sys_putc_imm a 'N';
    Vax_asm.Asm.label a "leak";
    Userland.sys_exit a;
    {
      Minivms.prog_name = "prober";
      prog_image = Vax_asm.Asm.assemble a;
      prog_data_pages = 1;
    }
  in
  let bare = Runner.run_bare (Minivms.build ~programs:[ prog ] ()) in
  check_str "rejected on bare" "N" bare.Runner.console;
  let vm = Runner.run_vm (Minivms.build ~programs:[ prog ] ()) in
  check_str "rejected in vm" "N" vm.Runner.console

let test_faulting_process_killed () =
  (* a wild store must kill the process, not the system *)
  let prog =
    let open Vax_arch in
    let a = Vax_asm.Asm.create ~origin:0 in
    Vax_asm.Asm.ins a Opcode.Movl
      [ Vax_asm.Asm.Imm 1; Vax_asm.Asm.Abs 0x8000_0600 ] (* kernel data! *);
    Userland.sys_putc_imm a 'X' (* must never run *);
    Userland.sys_exit a;
    {
      Minivms.prog_name = "wild";
      prog_image = Vax_asm.Asm.assemble a;
      prog_data_pages = 1;
    }
  in
  let build () =
    Minivms.build ~programs:[ prog; Programs.hello ~ident:2 ] ()
  in
  let bare = Runner.run_bare (build ()) in
  check_bool "system survived" true (completed bare);
  check_bool "wild process silenced" true
    (not (String.contains bare.Runner.console 'X'));
  check_bool "other process ran" true
    (String.contains bare.Runner.console '2');
  let vm = Runner.run_vm (build ()) in
  check_bool "vm system survived" true (completed vm);
  check_bool "vm wild process silenced" true
    (not (String.contains vm.Runner.console 'X'))

let test_unix_profile () =
  (* the 2-mode Unix-like profile (ULTRIX-32 in the paper) runs the
     CHMK-only workloads bare and in a VM *)
  let build () =
    Minivms.build ~profile:Minivms.Unix_like
      ~programs:[ Programs.syscall_storm ~iterations:50 ]
      ()
  in
  let bare = Runner.run_bare (build ()) in
  check_bool "bare completed" true (completed bare);
  let vm = Runner.run_vm (build ()) in
  check_bool "vm completed" true (completed vm)

let test_uptime_source_differs () =
  (* on a virtual VAX the OS reads VMM-maintained time (paper §5) *)
  let prog =
    let a = Vax_asm.Asm.create ~origin:0 in
    Userland.chmk a Userland.Sys.uptime;
    Vax_asm.Asm.ins a Vax_arch.Opcode.Movl
      [ Vax_asm.Asm.R 0; Vax_asm.Asm.R 6 ];
    Userland.sys_exit a;
    {
      Minivms.prog_name = "timecheck";
      prog_image = Vax_asm.Asm.assemble a;
      prog_data_pages = 1;
    }
  in
  let vm = Runner.run_vm (Minivms.build ~programs:[ prog ] ()) in
  check_bool "completed" true (completed vm);
  (* the MFPR from UPTIME itself was emulated: count it *)
  match vm.Runner.vm with
  | Some g ->
      check_bool "MFPR emulated" true
        (Vax_vmm.Vm.opcode_count g.Vax_vmm.Vm.stats Vax_arch.Opcode.Mfpr > 0)
  | None -> Alcotest.fail "no vm"

let () =
  Alcotest.run "vax_vmos"
    [
      ( "minivms",
        [
          Alcotest.test_case "boots on the standard VAX" `Quick
            test_boots_on_standard_vax;
          Alcotest.test_case "boots on the modified VAX" `Quick
            test_boots_on_modified_vax;
          Alcotest.test_case "boots in a VM" `Quick test_boots_in_vm;
          Alcotest.test_case "three-way console equivalence" `Quick
            test_three_way_equivalence_mixed;
          Alcotest.test_case "demand-zero paging + modify faults" `Quick
            test_demand_zero_paging;
          Alcotest.test_case "preemptive scheduling interleaves" `Quick
            test_scheduler_interleaves;
          Alcotest.test_case "disk I/O bare and via KCALL" `Quick
            test_disk_io_roundtrip_bare_and_vm;
          Alcotest.test_case "MMIO guest under emulation" `Quick
            test_mmio_guest_in_vm;
          Alcotest.test_case "sleep, wake, WAIT idling" `Quick
            test_sleep_and_wait;
          Alcotest.test_case "PROBE rejects bad buffers" `Quick
            test_bad_buffer_rejected;
          Alcotest.test_case "faulting process killed, system lives" `Quick
            test_faulting_process_killed;
          Alcotest.test_case "Unix-like 2-mode profile" `Quick
            test_unix_profile;
          Alcotest.test_case "virtual VAX reads VMM time" `Quick
            test_uptime_source_differs;
        ] );
    ]
