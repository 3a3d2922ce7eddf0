(** The Processor Status Longword.

    Field layout follows the VAX Architecture Reference Manual:

    {v
      bit  0   C    carry condition code
      bit  1   V    overflow condition code
      bit  2   Z    zero condition code
      bit  3   N    negative condition code
      bit  4   T    trace enable
      bit  5   IV   integer overflow trap enable
      bits 16-20 IPL  interrupt priority level
      bits 22-23 PRV  previous access mode
      bits 24-25 CUR  current access mode
      bit  26  IS   executing on the interrupt stack
      bit  27  FPD  first part done
      bit  29  VM   virtual-machine mode (modified VAX only; the standard
                    VAX leaves this bit zero and REI rejects it)
    v}

    Bit 29 is unused by the standard architecture; the paper does not give
    the position of PSL<VM>, so we place it there.  A PSL is an immutable
    {!Word.t}; all accessors are pure. *)

type t = Word.t

val initial : t
(** Power-on PSL: kernel mode, interrupt stack, IPL 31. *)

(* Condition codes *)
val c : t -> bool
val v : t -> bool
val z : t -> bool
val n : t -> bool
val t_bit : t -> bool
val iv : t -> bool

val with_c : t -> bool -> t
val with_v : t -> bool -> t
val with_z : t -> bool -> t
val with_n : t -> bool -> t

val with_nzvc : t -> n:bool -> z:bool -> v:bool -> c:bool -> t
(** Replace all four condition codes at once, as most instructions do. *)

val ipl : t -> int
val with_ipl : t -> int -> t

val cur : t -> Mode.t
val prv : t -> Mode.t
val with_cur : t -> Mode.t -> t
val with_prv : t -> Mode.t -> t

val is : t -> bool
(** Interrupt-stack flag. *)

val with_is : t -> bool -> t

val fpd : t -> bool
val with_fpd : t -> bool -> t

val vm : t -> bool
(** PSL<VM>: set when the processor is executing a virtual machine.
    Meaningful only on the modified (virtualizing) VAX. *)

val with_vm : t -> bool -> t

val vm_bit_mask : Word.t
(** The mask of the PSL<VM> bit, for software that must hide it. *)

val mbz_violation : t -> bool
(** True when a must-be-zero PSL bit is set — REI must fault on such an
    image.  PSL<VM> counts as MBZ: software reading the PSL never sees it,
    and REI on the modified VAX clears rather than loads it (the VMM sets
    it through a dedicated microcode path instead). *)

val stack_slot : t -> int
(** Which of the five stack pointers the PSL selects: 4 (the interrupt
    stack) when IS is set, else the current mode's. *)

val merge_vmpsl : t -> vmpsl:t -> t
(** The VM's PSL as MOVPSL and the VM-emulation frame show it (paper
    §4.4.1): the real PSL's condition codes and trap enables, CUR, PRV,
    IPL and IS from [vmpsl], and PSL<VM> clear.  The microcode composes
    it from the real registers, the VMM from the VM's saved copies. *)

val rei_valid : current:t -> stacked:t -> may_enter_vm:bool -> bool
(** The REI rule (paper §4.4): whether REI run under [current] may load
    [stacked].  It may not raise the mode, put PRV above the new mode,
    reach the interrupt stack from off it or outside kernel mode, raise
    the IPL, keep a nonzero IPL outside kernel mode, or set an MBZ bit.
    PSL<VM> needs [may_enter_vm] (the modified VAX) and kernel mode
    outside a VM: the VMM's doorway into a VM. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, e.g. [cur=kernel prv=user ipl=0 is=0 NZVC=0100]. *)
