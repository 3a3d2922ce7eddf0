(* vaxrun — boot MiniVMS workloads on the simulated VAX, bare or under
   the VMM, from the command line.

   Examples:
     vaxrun --workload mix                 # bare standard VAX
     vaxrun --workload mix --vm            # in a virtual machine
     vaxrun --workload io --vm --mmio      # MMIO-emulation ablation
     vaxrun --workload ipl --vm --assist   # with the 730-style assist *)

open Cmdliner
open Vax_vmm
open Vax_workloads
module Trace = Vax_obs.Trace
module Fleet = Vax_fleet.Fleet
module Campaign = Vax_fleet.Campaign
module Fault_plan = Vax_fault.Fault_plan
module Fault_engine = Vax_fault.Engine

(* --fleet N: run N independent jobs drawn round-robin from the workload
   catalog across --jobs worker domains, print the per-job table, and
   optionally write the vax-fleet/1 report.  Exits nonzero if any job
   crashed. *)
let run_fleet_mode ~fleet ~jobs ~vm ~mmio ~quiet ~fleet_json =
  let mode = if vm then Fleet.Vm else Fleet.Bare in
  let batch = Fleet.catalog_jobs ~n:fleet ~mode ~mmio:(vm && mmio) in
  let report = Fleet.run ?jobs batch in
  if not quiet then Format.printf "%a" Fleet.pp report
  else
    Format.printf "%d jobs on %d domains: %.2f jobs/sec@." report.Fleet.njobs
      report.Fleet.domains report.Fleet.jobs_per_sec;
  (match fleet_json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Vax_obs.Json.to_string (Fleet.to_json report));
      output_char oc '\n';
      close_out oc;
      Format.printf "fleet report: %s@." path);
  match Fleet.crashed report with
  | [] -> ()
  | crashed ->
      List.iter
        (fun (j, (e : Fleet.job_error)) ->
          Format.eprintf "fleet job %s quarantined after %d attempt(s): %s@."
            j.Fleet.job_name e.Fleet.attempts e.Fleet.error)
        crashed;
      exit 1

(* --campaign: sweep the standard fault-plan catalog across workloads
   bare+VM and check the containment invariant.  Exits nonzero on any
   violation. *)
let run_campaign_mode ~jobs ~quiet ~campaign_json =
  let outcome = Campaign.run ?jobs () in
  if quiet then
    Format.printf "campaign: %d cells, %d faults injected, %d violations@."
      outcome.Campaign.cells outcome.Campaign.injected_total
      (List.length outcome.Campaign.violations)
  else Format.printf "%a" Campaign.pp outcome;
  (match campaign_json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Vax_obs.Json.to_string (Campaign.to_json outcome));
      output_char oc '\n';
      close_out oc;
      Format.printf "campaign report: %s@." path);
  if outcome.Campaign.violations <> [] then exit 1

let load_plan path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Fault_plan.of_string s with
  | plan -> plan
  | exception Fault_plan.Invalid_plan msg ->
      Format.eprintf "vaxrun: invalid fault plan %s: %s@." path msg;
      exit 2

let run workload fleet jobs fleet_json campaign campaign_json inject_plan vm
    mmio assist slots no_cache no_block_cache prefill separate
    quiet trace_out metrics =
  if campaign then run_campaign_mode ~jobs ~quiet ~campaign_json
  else if fleet > 0 then
    run_fleet_mode ~fleet ~jobs ~vm ~mmio ~quiet ~fleet_json
  else
  let built = Catalog.build ~force_mmio:(vm && mmio) workload in
  let inject = Option.map (fun p -> Fault_engine.create (load_plan p)) inject_plan in
  let engine =
    if no_block_cache then Vax_cpu.Exec.Stepper else Vax_cpu.Exec.Blocks
  in
  (* --trace: enable the machine trace and stream vax-trace/1 JSONL *)
  let trace_oc = ref None in
  let instrument (mach : Vax_dev.Machine.t) =
    (match trace_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        trace_oc := Some oc;
        output_string oc (Trace.header_json_line ());
        output_char oc '\n';
        Trace.set_sink mach.Vax_dev.Machine.trace
          (Some
             (fun ~seq kind ~a ~b ~c ->
               output_string oc (Trace.to_json_line ~seq kind ~a ~b ~c);
               output_char oc '\n'));
        Trace.set_enabled mach.Vax_dev.Machine.trace true)
  in
  let m =
    if vm then
      Runner.run_vm
        ~config:
          {
            Vmm.default_config with
            shadow_cache_slots = slots;
            shadow_cache_enabled = not no_cache;
            prefill_group = prefill;
            ipl_assist = assist;
            separate_vmm_space = separate;
            default_io_mode = (if mmio then Vm.Mmio_io else Vm.Kcall_io);
          }
        ~engine ?inject ~instrument built
    else Runner.run_bare ~engine ?inject ~instrument built
  in
  (match !trace_oc with
  | Some oc ->
      close_out oc;
      Format.printf "trace: %d events (%s)@."
        (Trace.total m.Runner.machine.Vax_dev.Machine.trace)
        (Option.get trace_out)
  | None -> ());
  Format.printf "outcome: %a@." Vax_dev.Machine.pp_outcome m.Runner.outcome;
  if not quiet then Format.printf "console:@.%s@." m.Runner.console;
  Format.printf "cycles: %d (guest %d, monitor %d), instructions: %d@."
    m.Runner.total_cycles m.Runner.guest_cycles m.Runner.monitor_cycles
    m.Runner.instructions;
  if metrics then
    Format.printf "metrics:@.%a" Vax_obs.Metrics.pp
      m.Runner.machine.Vax_dev.Machine.metrics;
  (match inject with
  | None -> ()
  | Some engine ->
      let st = Fault_engine.status engine in
      Format.printf
        "fault injection: %d fired, %d parity raised, %d MC delivered, %d \
         reflected, %d absorbed, %d double faults — %s@."
        st.Fault_engine.injected st.Fault_engine.parity_raised
        st.Fault_engine.mc_delivered st.Fault_engine.mc_reflected
        st.Fault_engine.mc_absorbed st.Fault_engine.double_faults
        (if st.Fault_engine.contained then "contained"
         else "CONTAINMENT VIOLATION");
      if not st.Fault_engine.contained then exit 1);
  match m.Runner.vm with
  | Some g -> Format.printf "%a@." Vmm.pp_vm_stats g
  | None -> ()

let cmd =
  let workload =
    Arg.(
      value
      & opt string "mix"
      & info [ "workload"; "w" ]
          ~doc:
            "Workload: hello, mix, editing, transaction, compute, calls, \
             syscall, ipl, io.")
  in
  let fleet =
    Arg.(
      value & opt int 0
      & info [ "fleet" ] ~docv:"N"
          ~doc:
            "Fleet mode: run $(docv) independent jobs drawn round-robin \
             from the workload catalog (bare machines, or VMs with $(b,--vm)) \
             across worker domains, and report per-job results plus batch \
             throughput.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"J"
          ~doc:
            "Worker domains for $(b,--fleet) (default: the runtime's \
             recommended domain count).  Per-job results are bit-identical \
             whatever $(docv) is.")
  in
  let fleet_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "fleet-json" ] ~docv:"FILE"
          ~doc:"Write the vax-fleet/2 JSON report to $(docv).")
  in
  let campaign =
    Arg.(
      value & flag
      & info [ "campaign" ]
          ~doc:
            "Fault campaign: sweep the built-in fault-plan catalog across \
             workloads, bare and under the VMM, and check the containment \
             invariant on every cell.  Exits nonzero on any violation.")
  in
  let campaign_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "campaign-json" ] ~docv:"FILE"
          ~doc:"Write the vax-campaign/1 JSON report to $(docv).")
  in
  let inject_plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"PLAN"
          ~doc:
            "Arm the vax-fault-plan/1 JSON plan in $(docv) on the single-run \
             machine and report the containment status after the run.")
  in
  let vm = Arg.(value & flag & info [ "vm" ] ~doc:"Run in a virtual machine.") in
  let mmio =
    Arg.(value & flag & info [ "mmio" ] ~doc:"Emulated memory-mapped I/O.")
  in
  let assist =
    Arg.(value & flag & info [ "assist" ] ~doc:"MTPR-to-IPL microcode assist.")
  in
  let slots =
    Arg.(value & opt int 4 & info [ "slots" ] ~doc:"Shadow cache slots.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the shadow cache.")
  in
  let no_block_cache =
    Arg.(
      value & flag
      & info [ "no-block-cache" ]
          ~doc:
            "Run on the reference per-step interpreter instead of the \
             superblock engine (identical simulated behaviour, slower host \
             wall-clock).")
  in
  let prefill =
    Arg.(value & opt int 0 & info [ "prefill" ] ~doc:"Shadow prefill group.")
  in
  let separate =
    Arg.(
      value & flag
      & info [ "separate-space" ] ~doc:"Separate VMM address space ablation.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress console output.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Stream the machine event trace to $(docv) as vax-trace/1 JSONL.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry snapshot after the run.")
  in
  Cmd.v
    (Cmd.info "vaxrun" ~doc:"Run MiniVMS workloads on the simulated VAX")
    Term.(
      const run $ workload $ fleet $ jobs $ fleet_json $ campaign
      $ campaign_json $ inject_plan $ vm $ mmio $ assist $ slots $ no_cache
      $ no_block_cache $ prefill $ separate $ quiet $ trace_out
      $ metrics)

let () = exit (Cmd.eval cmd)
