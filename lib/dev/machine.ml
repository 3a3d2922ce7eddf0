open Vax_arch
open Vax_cpu
open Vax_mem

type t = {
  cpu : State.t;
  mmu : Mmu.t;
  phys : Phys_mem.t;
  clock : Cycles.t;
  sched : Sched.t;
  timer : Timer.t;
  console : Console.t;
  disk : Disk.t;
  trace : Vax_obs.Trace.t;
  metrics : Vax_obs.Metrics.t;
  engine : Exec.engine;
  bcache : Block_cache.t;
  inject : Vax_fault.Engine.t;
}

type outcome = Halted | Stopped | Cycle_limit | Deadlock | Double_fault

let pp_outcome ppf o =
  Format.pp_print_string ppf
    (match o with
    | Halted -> "halted"
    | Stopped -> "stopped"
    | Cycle_limit -> "cycle limit"
    | Deadlock -> "deadlock"
    | Double_fault -> "double fault")

let create ?(variant = Variant.Standard) ?(memory_pages = 2048)
    ?(disk_blocks = 256) ?modify_policy ?(engine = Exec.Blocks)
    ?(inject = Vax_fault.Engine.null) () =
  let policy =
    match modify_policy with
    | Some p -> p
    | None -> (
        match variant with
        | Variant.Standard -> Mmu.Hardware_sets_m
        | Variant.Virtualizing -> Mmu.Modify_fault_policy)
  in
  let phys = Phys_mem.create ~pages:memory_pages in
  let clock = Cycles.create () in
  let mmu = Mmu.create ~policy ~phys ~clock () in
  let cpu = State.create ~variant ~mmu ~clock () in
  let sched = Sched.create clock in
  let timer = Timer.create ~sched ~cpu () in
  let console = Console.create ~sched ~cpu () in
  let disk = Disk.create ~sched ~cpu ~phys ~blocks:disk_blocks () in
  (* chain the device IPR hooks *)
  cpu.State.ipr_read_hook <-
    (fun r ->
      match Timer.handles_read timer r with
      | Some v -> Some v
      | None -> Console.handles_read console r);
  cpu.State.ipr_write_hook <-
    (fun r v -> Timer.handles_write timer r v || Console.handles_write console r v);
  (* one machine-wide trace, disabled until someone enables it, and a
     registry of gauges over the counters the components already keep *)
  let trace = Vax_obs.Trace.create () in
  Mmu.set_trace mmu trace;
  cpu.State.trace <- trace;
  let metrics = Vax_obs.Metrics.create () in
  let tlb = Mmu.tlb mmu in
  Vax_obs.Metrics.register metrics "tlb.hits" (fun () -> Tlb.hits tlb);
  Vax_obs.Metrics.register metrics "tlb.misses" (fun () -> Tlb.misses tlb);
  Vax_obs.Metrics.register metrics "tlb.evictions" (fun () ->
      Tlb.evictions tlb);
  Vax_obs.Metrics.register metrics "mmu.walks" (fun () -> Mmu.walks mmu);
  Vax_obs.Metrics.register metrics "mmu.modify_faults" (fun () ->
      Mmu.modify_faults_delivered mmu);
  Vax_obs.Metrics.register metrics "cpu.instructions" (fun () ->
      cpu.State.instructions);
  Vax_obs.Metrics.register metrics "cpu.vm_instructions" (fun () ->
      cpu.State.vm_instructions);
  Vax_obs.Metrics.register metrics "cpu.interrupts_taken" (fun () ->
      cpu.State.interrupts_taken);
  Vax_obs.Metrics.register_group metrics "cpu.exceptions" (fun () ->
      List.map
        (fun (vector, n) ->
          ( String.map
              (fun c -> if c = ' ' then '-' else Char.lowercase_ascii c)
              (Scb.name vector),
            n ))
        (State.exception_counts cpu));
  Vax_obs.Metrics.register metrics "timer.ticks" (fun () -> Timer.ticks timer);
  Vax_obs.Metrics.register metrics "disk.ios" (fun () -> Disk.io_count disk);
  Vax_obs.Metrics.register metrics "console.chars_written" (fun () ->
      Console.chars_written console);
  let bcache = Block_cache.create () in
  Vax_obs.Metrics.register metrics "blocks.hits" (fun () ->
      Block_cache.hits bcache);
  Vax_obs.Metrics.register metrics "blocks.misses" (fun () ->
      Block_cache.misses bcache);
  Vax_obs.Metrics.register metrics "blocks.chains" (fun () ->
      Block_cache.chains bcache);
  Vax_obs.Metrics.register metrics "blocks.built" (fun () ->
      Block_cache.built bcache);
  Vax_obs.Metrics.register metrics "blocks.invalidations" (fun () ->
      Block_cache.invalidations bcache);
  Vax_obs.Metrics.register_group metrics "blocks.liveness" (fun () ->
      Block_cache.liveness_metrics bcache);
  (* Arm the fault-injection engine (everything below is skipped — and
     the [fault.*] gauge group never registered — when no plan is
     armed, so a disarmed machine's metrics and behaviour stay
     bit-identical). *)
  if not (Vax_fault.Engine.is_null inject) then begin
    Phys_mem.set_inject phys inject;
    cpu.State.inject <- inject;
    Disk.set_inject disk inject;
    Vax_fault.Engine.install inject
      ~flip:(fun ~pa ~bit -> Phys_mem.flip_bit phys pa ~bit)
      ~tlb:(fun ~va -> Mmu.tbis mmu va)
      ~post:(fun ~vector ~ipl -> State.post_interrupt cpu ~ipl ~vector)
      ~stuck_timer:(fun () -> Timer.jam timer)
      ~disk:(fun ~timeout -> Disk.arm_fault disk ~timeout);
    Vax_fault.Engine.set_trace inject trace;
    Vax_obs.Metrics.register_group metrics "fault" (fun () ->
        Vax_fault.Engine.metrics inject)
  end;
  { cpu; mmu; phys; clock; sched; timer; console; disk; trace; metrics;
    engine; bcache; inject }

let load t pa image = Phys_mem.blit_in t.phys pa image

let start t ~pc ~sp =
  State.set_pc t.cpu pc;
  State.set_sp t.cpu sp;
  t.cpu.State.halted <- false

let run t ?(max_cycles = 100_000_000) () =
  let limit = Cycles.now t.clock + max_cycles in
  (* resolve the engine dispatch once per [run], not per instruction *)
  let exec_once =
    match t.engine with
    | Exec.Stepper -> fun () -> Exec.step t.cpu
    | Exec.Blocks -> fun () -> Exec.step_blocks t.cpu t.bcache
  in
  let rec loop () =
    if Cycles.now t.clock >= limit then Cycle_limit
    else begin
      (* Device callbacks (disk DMA against a guest-supplied address)
         can hit nonexistent or poisoned memory with no instruction to
         fault: contain it as a double fault, not a host crash. *)
      (try Sched.run_due t.sched
       with
      | Phys_mem.Nonexistent_memory pa ->
          State.double_fault_halt t.cpu
            (Printf.sprintf
               "machine check (nonexistent memory pa=0x%X) in a device \
                callback"
               pa)
      | Vax_fault.Engine.Parity_error pa ->
          State.double_fault_halt t.cpu
            (Printf.sprintf
               "machine check (memory parity pa=0x%X) in a device callback"
               pa));
      if t.cpu.State.halted then Halted
      else if t.cpu.State.stop_requested then Stopped
      else if t.cpu.State.idle_hint then begin
        match State.highest_pending t.cpu with
        | Some _ ->
            t.cpu.State.idle_hint <- false;
            step ()
        | None -> (
            match Sched.next_due t.sched with
            | Some c when c > limit -> Cycle_limit
            | Some c ->
                Cycles.advance_to t.clock c;
                loop ()
            | None -> Deadlock)
      end
      else step ()
    end
  and step () =
    (* timed fault triggers fire at instruction boundaries; the guard
       is one load + one branch when no plan (or no timed entry) is
       armed *)
    if Vax_fault.Engine.timed_armed t.inject then
      Vax_fault.Engine.poll t.inject ~cycle:(Cycles.now t.clock)
        ~instructions:t.cpu.State.instructions;
    match exec_once () with
    | Exec.Stepped -> loop ()
    | Exec.Machine_halted -> Halted
    | Exec.Stopped -> Stopped
  in
  let outcome = loop () in
  (* anything inspecting the stopped machine (tests, the VMM between
     [run] calls, state comparison) must see a live PSL *)
  State.sync_cc t.cpu;
  (* a halt recorded by [State.double_fault_halt] is its own outcome *)
  match outcome with
  | Halted when t.cpu.State.double_fault <> None -> Double_fault
  | o -> o
