(* Pinned simulated results of the exit-heavy catalog runs.

   Host-side changes to the exception and VMM exit path (frame push,
   exit record, scheduling, register hand-off) must leave every
   simulated figure untouched.  This table was recorded from the build
   that preceded the exit-path rewrite; any drift in cycles, instruction
   counts, console output, TLB statistics, exception counts or the VM's
   own counters fails here with the row the current build produces. *)

open Vax_workloads

type row = {
  workload : string;
  vm : bool;
  console_md5 : string;
  counts : (string * int) list;
}

let pinned_metric (name, _) =
  let has_prefix p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  name = "tlb.hits" || name = "tlb.misses"
  || has_prefix "cpu.exceptions." || has_prefix "vm.guest."

let observe workload vm =
  let built = Catalog.build workload in
  let m = if vm then Runner.run_vm built else Runner.run_bare built in
  let metrics =
    Vax_obs.Metrics.snapshot m.Runner.machine.Vax_dev.Machine.metrics
  in
  {
    workload;
    vm;
    console_md5 = Digest.to_hex (Digest.string m.Runner.console);
    counts =
      [
        ("cycles", m.Runner.total_cycles);
        ("monitor_cycles", m.Runner.monitor_cycles);
        ("instructions", m.Runner.instructions);
      ]
      @ List.filter pinned_metric metrics;
  }

let pp_row ppf r =
  Format.fprintf ppf "@[<v 2>{ workload = %S; vm = %b; console_md5 = %S;@ counts = [@ "
    r.workload r.vm r.console_md5;
  List.iter (fun (k, v) -> Format.fprintf ppf "(%S, %d);@ " k v) r.counts;
  Format.fprintf ppf "] };@]"

let table =
  [
    { workload = "syscall"; vm = false; console_md5 = "d41d8cd98f00b204e9800998ecf8427e";
      counts = [
      ("cycles", 205876);
      ("monitor_cycles", 0);
      ("instructions", 24411);
      ("cpu.exceptions.chmk", 1001);
      ("cpu.exceptions.interval-timer", 24);
      ("cpu.exceptions.software-interrupt-3", 7);
      ("tlb.hits", 37701);
      ("tlb.misses", 18);
      ] };
    { workload = "syscall"; vm = true; console_md5 = "d41d8cd98f00b204e9800998ecf8427e";
      counts = [
      ("cycles", 979449);
      ("monitor_cycles", 493826);
      ("instructions", 26726);
      ("cpu.exceptions.interval-timer", 48);
      ("cpu.exceptions.software-interrupt-1", 119);
      ("cpu.exceptions.translation-not-valid", 8);
      ("cpu.exceptions.vm-emulation", 4432);
      ("tlb.hits", 89079);
      ("tlb.misses", 64);
      ("vm.guest.chm_forwarded", 1001);
      ("vm.guest.context_switches", 31);
      ("vm.guest.emulation_traps", 4432);
      ("vm.guest.guest_instructions", 26726);
      ("vm.guest.io_requests", 0);
      ("vm.guest.mmio_traps", 0);
      ("vm.guest.modify_faults", 0);
      ("vm.guest.probe_emulated", 0);
      ("vm.guest.reflected_faults", 0);
      ("vm.guest.rei_emulated", 1149);
      ("vm.guest.shadow_cache_hits", 30);
      ("vm.guest.shadow_cache_misses", 1);
      ("vm.guest.shadow_fills", 10);
      ("vm.guest.shadow_invalidations", 2);
      ("vm.guest.virq_delivered", 149);
      ] };
    { workload = "ipl"; vm = false; console_md5 = "d41d8cd98f00b204e9800998ecf8427e";
      counts = [
      ("cycles", 51485);
      ("monitor_cycles", 0);
      ("instructions", 6478);
      ("cpu.exceptions.chmk", 2);
      ("cpu.exceptions.interval-timer", 5);
      ("cpu.exceptions.software-interrupt-3", 2);
      ("tlb.hits", 6136);
      ("tlb.misses", 14);
      ] };
    { workload = "ipl"; vm = true; console_md5 = "d41d8cd98f00b204e9800998ecf8427e";
      counts = [
      ("cycles", 515972);
      ("monitor_cycles", 213168);
      ("instructions", 7873);
      ("cpu.exceptions.interval-timer", 25);
      ("cpu.exceptions.software-interrupt-1", 62);
      ("cpu.exceptions.translation-not-valid", 9);
      ("cpu.exceptions.vm-emulation", 3238);
      ("tlb.hits", 50226);
      ("tlb.misses", 38);
      ("vm.guest.chm_forwarded", 2);
      ("vm.guest.context_switches", 17);
      ("vm.guest.emulation_traps", 3238);
      ("vm.guest.guest_instructions", 7873);
      ("vm.guest.io_requests", 0);
      ("vm.guest.mmio_traps", 0);
      ("vm.guest.modify_faults", 0);
      ("vm.guest.probe_emulated", 0);
      ("vm.guest.reflected_faults", 0);
      ("vm.guest.rei_emulated", 79);
      ("vm.guest.shadow_cache_hits", 16);
      ("vm.guest.shadow_cache_misses", 1);
      ("vm.guest.shadow_fills", 11);
      ("vm.guest.shadow_invalidations", 2);
      ("vm.guest.virq_delivered", 78);
      ] };
    { workload = "io"; vm = false; console_md5 = "c4ca4238a0b923820dcc509a6f75849b";
      counts = [
      ("cycles", 303221);
      ("monitor_cycles", 0);
      ("instructions", 61437);
      ("cpu.exceptions.chmk", 102);
      ("cpu.exceptions.interval-timer", 36);
      ("cpu.exceptions.software-interrupt-3", 10);
      ("cpu.exceptions.translation-not-valid", 1);
      ("tlb.hits", 83531);
      ("tlb.misses", 56);
      ] };
    { workload = "io"; vm = true; console_md5 = "c4ca4238a0b923820dcc509a6f75849b";
      counts = [
      ("cycles", 512230);
      ("monitor_cycles", 139434);
      ("instructions", 60072);
      ("cpu.exceptions.interval-timer", 25);
      ("cpu.exceptions.modify-fault", 1);
      ("cpu.exceptions.software-interrupt-1", 162);
      ("cpu.exceptions.translation-not-valid", 14);
      ("cpu.exceptions.vm-emulation", 1143);
      ("tlb.hits", 106264);
      ("tlb.misses", 108);
      ("vm.guest.chm_forwarded", 102);
      ("vm.guest.context_switches", 17);
      ("vm.guest.emulation_traps", 1143);
      ("vm.guest.guest_instructions", 60072);
      ("vm.guest.io_requests", 100);
      ("vm.guest.mmio_traps", 0);
      ("vm.guest.modify_faults", 1);
      ("vm.guest.probe_emulated", 1);
      ("vm.guest.reflected_faults", 1);
      ("vm.guest.rei_emulated", 280);
      ("vm.guest.shadow_cache_hits", 16);
      ("vm.guest.shadow_cache_misses", 1);
      ("vm.guest.shadow_fills", 15);
      ("vm.guest.shadow_invalidations", 3);
      ("vm.guest.virq_delivered", 178);
      ] };
    { workload = "mix"; vm = false; console_md5 = "f54fd493b790ba60f2a2da263f35f182";
      counts = [
      ("cycles", 596864);
      ("monitor_cycles", 0);
      ("instructions", 105400);
      ("cpu.exceptions.chme", 100);
      ("cpu.exceptions.chmk", 313);
      ("cpu.exceptions.chms", 60);
      ("cpu.exceptions.interval-timer", 73);
      ("cpu.exceptions.software-interrupt-3", 25);
      ("cpu.exceptions.translation-not-valid", 17);
      ("tlb.hits", 138351);
      ("tlb.misses", 166);
      ] };
    { workload = "mix"; vm = true; console_md5 = "a0894063ea1499a891e4da9c4e6c2d7b";
      counts = [
      ("cycles", 1173533);
      ("monitor_cycles", 363606);
      ("instructions", 106512);
      ("cpu.exceptions.interval-timer", 58);
      ("cpu.exceptions.modify-fault", 17);
      ("cpu.exceptions.software-interrupt-1", 224);
      ("cpu.exceptions.translation-not-valid", 65);
      ("cpu.exceptions.vm-emulation", 3187);
      ("tlb.hits", 185244);
      ("tlb.misses", 290);
      ("vm.guest.chm_forwarded", 473);
      ("vm.guest.context_switches", 42);
      ("vm.guest.emulation_traps", 3187);
      ("vm.guest.guest_instructions", 106512);
      ("vm.guest.io_requests", 80);
      ("vm.guest.mmio_traps", 0);
      ("vm.guest.modify_faults", 17);
      ("vm.guest.probe_emulated", 1);
      ("vm.guest.reflected_faults", 17);
      ("vm.guest.rei_emulated", 752);
      ("vm.guest.shadow_cache_hits", 39);
      ("vm.guest.shadow_cache_misses", 3);
      ("vm.guest.shadow_fills", 55);
      ("vm.guest.shadow_invalidations", 19);
      ("vm.guest.virq_delivered", 265);
      ] };
    { workload = "editing"; vm = false; console_md5 = "bd113c3f86d89287a35f8a189e51fe84";
      counts = [
      ("cycles", 203744);
      ("monitor_cycles", 0);
      ("instructions", 33098);
      ("cpu.exceptions.chme", 80);
      ("cpu.exceptions.chmk", 252);
      ("cpu.exceptions.chms", 80);
      ("cpu.exceptions.interval-timer", 24);
      ("cpu.exceptions.software-interrupt-3", 13);
      ("cpu.exceptions.translation-not-valid", 16);
      ("tlb.hits", 49548);
      ("tlb.misses", 138);
      ] };
    { workload = "editing"; vm = true; console_md5 = "bd113c3f86d89287a35f8a189e51fe84";
      counts = [
      ("cycles", 622600);
      ("monitor_cycles", 249410);
      ("instructions", 26995);
      ("cpu.exceptions.interval-timer", 31);
      ("cpu.exceptions.modify-fault", 16);
      ("cpu.exceptions.software-interrupt-1", 78);
      ("cpu.exceptions.translation-not-valid", 59);
      ("cpu.exceptions.vm-emulation", 2255);
      ("tlb.hits", 69568);
      ("tlb.misses", 249);
      ("vm.guest.chm_forwarded", 412);
      ("vm.guest.context_switches", 24);
      ("vm.guest.emulation_traps", 2255);
      ("vm.guest.guest_instructions", 26995);
      ("vm.guest.io_requests", 0);
      ("vm.guest.mmio_traps", 0);
      ("vm.guest.modify_faults", 16);
      ("vm.guest.probe_emulated", 0);
      ("vm.guest.reflected_faults", 16);
      ("vm.guest.rei_emulated", 525);
      ("vm.guest.shadow_cache_hits", 23);
      ("vm.guest.shadow_cache_misses", 1);
      ("vm.guest.shadow_fills", 47);
      ("vm.guest.shadow_invalidations", 18);
      ("vm.guest.virq_delivered", 98);
      ] };
  ]

let check_row (expected : row) () =
  let got = observe expected.workload expected.vm in
  if got <> expected then
    Alcotest.failf "simulated results drifted; this build gives@.%a" pp_row
      got

let () =
  Alcotest.run "pinned"
    [
      ( "exit-heavy runs",
        List.map
          (fun r ->
            Alcotest.test_case
              (Printf.sprintf "%s%s" r.workload (if r.vm then " --vm" else ""))
              `Quick (check_row r))
          table );
    ]
