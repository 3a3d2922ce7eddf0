(** Internal processor registers, accessed with MTPR/MFPR (both privileged).

    Numbers follow the VAX Architecture Reference Manual for the standard
    set.  Three groups are non-standard:

    - [VMPSL] exists only on the *modified* (virtualizing) VAX and holds
      the fields of the VM's PSL that differ from the real PSL (current and
      previous mode, IPL, IS); the VMM reads and writes it, and microcode
      consults it when PSL<VM> is set.  [VMPEND] is our reconstruction of
      the channel by which the VMM tells the optional IPL microcode assist
      the highest pending virtual interrupt level.
    - [MEMSIZE], [KCALL], [IORESET], [UPTIME] exist only on the *virtual*
      VAX (paper §5); on real processors they are reserved operands.  The
      VMM intercepts MTPR/MFPR and emulates them.
    - On any processor, referencing a register a processor does not
      implement takes a reserved-operand fault. *)

type t =
  | KSP  (** 0: kernel stack pointer *)
  | ESP  (** 1: executive stack pointer *)
  | SSP  (** 2: supervisor stack pointer *)
  | USP  (** 3: user stack pointer *)
  | ISP  (** 4: interrupt stack pointer *)
  | P0BR  (** 8: P0 base register (virtual address of P0 page table, in S) *)
  | P0LR  (** 9: P0 length register *)
  | P1BR  (** 10: P1 base register *)
  | P1LR  (** 11: P1 length register *)
  | SBR  (** 12: system base register (physical address of the SPT) *)
  | SLR  (** 13: system length register *)
  | PCBB  (** 16: process control block base (physical) *)
  | SCBB  (** 17: system control block base (physical) *)
  | IPL  (** 18: interrupt priority level *)
  | SIRR  (** 19: software interrupt request (write-only) *)
  | SISR  (** 20: software interrupt summary *)
  | ICCS  (** 24: interval clock control/status *)
  | NICR  (** 25: next interval count (reload value, write-only) *)
  | ICR  (** 26: interval count (read-only) *)
  | TODR  (** 27: time of day *)
  | RXCS  (** 32: console receive control/status *)
  | RXDB  (** 33: console receive data buffer *)
  | TXCS  (** 34: console transmit control/status *)
  | TXDB  (** 35: console transmit data buffer *)
  | MAPEN  (** 56: memory management enable *)
  | TBIA  (** 57: TB invalidate all (write-only) *)
  | TBIS  (** 58: TB invalidate single (write-only) *)
  | SID  (** 62: system identification (read-only) *)
  | VMPSL  (** 144: VM processor status longword (modified VAX only) *)
  | VMPEND  (** 145: highest pending virtual interrupt level (modified VAX,
                used only by the optional IPL microcode assist) *)
  | MEMSIZE  (** 160: physical memory size in pages (virtual VAX only) *)
  | KCALL  (** 161: VMM service call register (virtual VAX only) *)
  | IORESET  (** 162: reset virtual I/O system (virtual VAX only) *)
  | UPTIME  (** 163: VMM-maintained uptime in ticks (virtual VAX only) *)

val to_int : t -> int
val of_int : int -> t option
(** [None] for unassigned register numbers (reserved operands). *)

val all : t list
val name : t -> string
val pp : Format.formatter -> t -> unit

(** {2 The MTPR/MFPR access rule}

    The microcode applies it to the real registers, the VMM to the VM's
    saved copy (paper §4.4, §5).  Device behaviour (the interval clock,
    the console, KCALL) is not part of it. *)

type processor =
  | Standard
  | Modified  (** the modified (virtualizing) real VAX *)
  | Virtual  (** the virtual VAX a VM sees *)

val exists : processor -> t -> bool
(** The standard registers exist everywhere, VMPSL and VMPEND only on
    [Modified], MEMSIZE, KCALL, IORESET and UPTIME only on [Virtual]. *)

val readable : t -> bool
(** False for the write-only registers: SIRR, NICR, TBIA, TBIS, KCALL,
    IORESET. *)

val writable : t -> bool
(** False for the read-only registers: SID, ICR, MEMSIZE, UPTIME. *)

val write_value : processor -> t -> Word.t -> int
(** What MTPR of [v] stores in the register, or -1 (a reserved operand)
    when the register does not exist on the processor, is not writable,
    or refuses the value: a P0BR outside S space, or an SIRR level
    outside 1–15.  The stored value is normalized: the length registers,
    SBR and VMPSL masked to a longword, PCBB longword-aligned, SCBB
    page-aligned, IPL and VMPEND [land 31], SISR [land 0xFFFE], MAPEN
    [land 1].  Allocates nothing. *)
