(** Experiment engine: boot a built Mini-OS system either on the bare
    (simulated) machine or inside a virtual machine under the VMM, run it
    to completion, and collect the measurements the paper's evaluation
    needs. *)

open Vax_cpu
open Vax_dev
open Vax_vmm
open Vax_vmos
open Vax_analysis

type measurement = {
  outcome : Machine.outcome;
  total_cycles : int;
  guest_cycles : int;  (** cycles attributed to machine-level execution *)
  monitor_cycles : int;  (** cycles attributed to the VMM software *)
  instructions : int;  (** guest instructions executed *)
  console : string;
  machine : Machine.t;
  vm : Vm.t option;  (** present for VM runs: stats live here *)
  oracle : Oracle.t;
      (** the differential trap-prediction oracle that watched the run;
          every observed trap was checked eagerly ({!Oracle.Unpredicted}
          would have propagated), so this carries coverage only *)
}

val images_of_built : Minivms.built -> Vax_analysis.Cfg.image list
(** The built system's code images as vaxflow-ready CFG images, each
    carrying the access mode in which MiniVMS first enters it
    ({!Minivms.image_entry_mode}) as the abstract-mode seed. *)

val run_bare :
  ?variant:Variant.t ->
  ?engine:Exec.engine ->
  ?inject:Vax_fault.Engine.t ->
  ?instrument:(Machine.t -> unit) ->
  ?flow:bool ->
  ?liveness:bool ->
  ?max_cycles:int ->
  Minivms.built ->
  measurement
(** Boot the system directly on the hardware ([Standard] by default: the
    unmodified VAX; pass [Virtualizing] to check the paper's claim that
    standard operating systems run unchanged on the modified machine).
    [engine] selects the execution engine (default {!Exec.Blocks}).
    [inject] arms a fault-injection engine on the machine
    ([Vax_fault.Engine.null], i.e. fully disarmed, by default).
    [instrument] runs on the fully wired machine before execution starts
    — the hook for enabling [Machine.trace] or attaching a sink.
    [flow] (default [true]) builds the oracle's static pass
    flow-sensitively (vaxflow); its gauges register as
    ["analysis.flow.*"] in the machine's metrics.
    [liveness] (default [true]) runs the backward NZVC/register
    liveness pass over the workload's images and installs the resulting
    fact table in the machine's block cache, letting the superblock
    compiler defer provably dead condition-code recomputation and fold
    proven-constant register operands; gauges register as
    ["blocks.liveness.*"].
    Simulated cycles, trace events and TLB statistics are bit-identical
    with the switch on or off — only wall-clock changes. *)

val run_vm :
  ?config:Vmm.config ->
  ?io_mode:Vm.io_mode ->
  ?engine:Exec.engine ->
  ?inject:Vax_fault.Engine.t ->
  ?instrument:(Machine.t -> unit) ->
  ?flow:bool ->
  ?liveness:bool ->
  ?max_cycles:int ->
  Minivms.built ->
  measurement
(** Boot the same system in a virtual machine under the VMM.
    [instrument] runs after the VMM and guest are set up, before the
    machine executes. *)

val run_two_vms :
  ?config:Vmm.config ->
  ?engine:Exec.engine ->
  ?inject:Vax_fault.Engine.t ->
  ?instrument:(Machine.t -> unit) ->
  ?flow:bool ->
  ?liveness:bool ->
  ?max_cycles:int ->
  Minivms.built ->
  Minivms.built ->
  measurement * measurement
(** Two guests sharing the machine under one VMM. *)

val ratio : vm:measurement -> bare:measurement -> float
(** VM performance as a fraction of bare performance for the same
    (completed) workload: bare cycles / VM cycles. *)
