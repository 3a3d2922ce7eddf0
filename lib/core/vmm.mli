(** The virtual machine monitor — the VAX security kernel of the paper.

    The VMM attaches to a [Vax_dev.Machine] built with the [Virtualizing]
    CPU variant, reserves real kernel mode to itself, and runs virtual
    machines in the outer three rings using ring compression
    ({!Ring}) and shadow page tables ({!Shadow}).

    It is implemented as the machine's kernel agent: the microcode
    initiates every exception and interrupt (stack switch, frame push,
    PSL<VM> clear) and then invokes the VMM, which services the event by
    manipulating architectural state exactly as privileged software
    would, with every operation charged to the shared cycle clock under
    the monitor's account.

    Typical use:
    {[
      let machine = Machine.create ~variant:Variant.Virtualizing () in
      let vmm = Vmm.create machine () in
      let vm = Vmm.add_vm vmm ~name:"vms1" ~memory_pages:512
                 ~disk_blocks:64 ~images:[ (0x200, boot_code) ]
                 ~start_pc:0x200 () in
      let outcome = Vmm.run vmm ~max_cycles:10_000_000 () in
      print_string (Vmm.console_output vm)
    ]} *)

open Vax_arch
open Vax_dev

type config = {
  shadow_cache_slots : int;
      (** shadow process-table slots per VM (paper §7.2); at least 1 *)
  shadow_cache_enabled : bool;
      (** false = invalidate the slot on every VM context switch (the
          baseline whose fault cost §7.2 reports) *)
  prefill_group : int;
      (** extra shadow PTEs to translate per fault (§4.3.1's rejected
          anticipatory scheme; 0 = pure on-demand) *)
  separate_vmm_space : bool;
      (** charge an address-space switch + TB flush on every VMM entry
          and exit — the rejected alternative of §7.1 *)
  ipl_assist : bool;
      (** enable the VAX-11/730-style MTPR-to-IPL microcode assist *)
  time_slice_cycles : int;
  default_io_mode : Vm.io_mode;
  ro_shadow_scheme : bool;
      (** use read-only shadow PTEs instead of the modify fault — the
          rejected alternative of §4.4.2, kept for experiment E6 *)
}

val default_config : config

type t

val create : ?config:config -> Machine.t -> t
(** Attach the VMM to the machine (which must be [Virtualizing]).
    Allocates the VMM's real stacks and programs the real interval timer
    for time slicing. *)

val machine : t -> Machine.t
val config : t -> config

val add_vm :
  t ->
  name:string ->
  memory_pages:int ->
  disk_blocks:int ->
  ?io_mode:Vm.io_mode ->
  images:(Word.t * bytes) list ->
  start_pc:Word.t ->
  unit ->
  Vm.t
(** Create a VM: carve its contiguous real memory block, build its shadow
    tables, load boot [images] at VM-physical addresses, and mark it
    runnable at [start_pc] in virtual kernel mode with memory management
    off — the power-on state of a virtual VAX. *)

val vms : t -> Vm.t list

val run : t -> ?max_cycles:int -> unit -> Machine.outcome
(** Enter the first runnable VM and drive the machine until every VM has
    halted ([Stopped]), a cycle budget expires, or deadlock.  No guest
    program raises out of [run]: whatever a guest does is reflected to it
    as a VM exception or halts that VM alone. *)

val console_output : Vm.t -> string
val console_feed : t -> Vm.t -> string -> unit
(** Virtual console I/O for a VM. *)

val load_vm_disk : t -> Vm.t -> int -> bytes -> unit
(** Write a block image into the VM's disk partition (host-side setup). *)

val read_vm_disk : t -> Vm.t -> int -> bytes

val vm_phys_read_long : t -> Vm.t -> Word.t -> Word.t
(** Read a longword of VM-physical memory (test inspection). *)

val guest_instructions : Vm.t -> int

val pp_vm_stats : Format.formatter -> Vm.t -> unit
