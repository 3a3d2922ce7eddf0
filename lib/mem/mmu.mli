(** VAX memory management: address translation, protection, and the
    modify-bit policy.

    The MMU owns the memory-management processor registers (MAPEN, P0BR,
    P0LR, P1BR, P1LR, SBR, SLR) and the translation buffer.  The S-space
    page table lives in physical memory at SBR; the P0 and P1 page tables
    live in S *virtual* memory at P0BR/P1BR, so a process-space miss can
    take a second (system) walk for the page-table page, exactly as on the
    VAX.

    Checks are performed in architectural order: region/length (access
    violation with the length-violation flag), protection (checked even
    when the PTE is invalid — the property the VMM's null shadow PTE
    relies on), validity (translation not valid), then modify.

    Two modify-bit policies (paper §4.4.2):
    - [Hardware_sets_m] (standard VAX): a legal write to an unmodified page
      silently sets PTE<M> in memory and in the TB;
    - [Modify_fault] (modified VAX): the same write takes a modify fault,
      and software must set PTE<M> itself before retrying. *)

open Vax_arch

type t

type modify_policy = Hardware_sets_m | Modify_fault_policy

type fault =
  | Access_violation of {
      va : Word.t;
      length_violation : bool;
      ptbl_ref : bool;  (** fault occurred on the page-table reference *)
      write : bool;
    }
  | Translation_not_valid of { va : Word.t; ptbl_ref : bool; write : bool }
  | Modify_fault of { va : Word.t }

val pp_fault : Format.formatter -> fault -> unit

val fault_vector : fault -> Scb.vector
val fault_va : fault -> Word.t

val fault_param : fault -> write:bool -> int
(** The fault's first frame parameter: bit 0 length violation, bit 1
    page-table reference, bit 2 write (also set when [write]).  The
    second is {!fault_va}. *)

val create :
  ?tlb_capacity:int ->
  ?policy:modify_policy ->
  phys:Phys_mem.t ->
  clock:Cycles.t ->
  unit ->
  t

val phys : t -> Phys_mem.t
val tlb : t -> Tlb.t
val clock : t -> Cycles.t

val policy : t -> modify_policy
val set_policy : t -> modify_policy -> unit

(** {1 Memory-management registers} *)

val mapen : t -> bool
val set_mapen : t -> bool -> unit
val p0br : t -> Word.t
val p0lr : t -> int
val p1br : t -> Word.t
val p1lr : t -> int
val sbr : t -> Word.t
val slr : t -> int
val set_p0br : t -> Word.t -> unit
val set_p0lr : t -> int -> unit
val set_p1br : t -> Word.t -> unit
val set_p1lr : t -> int -> unit
val set_sbr : t -> Word.t -> unit
val set_slr : t -> int -> unit

(** {1 Translation} *)

val translate :
  t -> mode:Mode.t -> write:bool -> Word.t -> (Word.t, fault) result
(** Translate one virtual byte address for an access of the given intent.
    Returns the physical address.  Applies the modify policy on writes. *)

val no_translation : int
(** The negative sentinel returned by {!try_translate}. *)

val try_translate : t -> mode:Mode.t -> write:bool -> Word.t -> int
(** Allocation-free fast path of {!translate} for the two hot outcomes:
    mapping disabled, and a TLB hit needing no walk and no modify-policy
    action.  Returns the physical address, or {!no_translation} when the
    caller must take {!translate} (miss, protection failure, or a write to
    an unmodified page).  Charges cycles and counts TLB statistics exactly
    as {!translate} would for the same outcome, and charges/counts nothing
    when it returns {!no_translation}. *)

type probe_outcome = { accessible : bool; pte_valid : bool }

val probe :
  t -> mode:Mode.t -> write:bool -> Word.t -> (probe_outcome, fault) result
(** The PROBE check for one byte: protection only (validity is reported,
    not required).  Length violations yield [accessible = false] rather
    than a fault; page-table faults (invalid or inaccessible page-table
    page) are real faults, as on the VAX. *)

val read_pte : t -> Word.t -> (Word.t * Word.t, fault) result
(** [read_pte t va] walks to the PTE mapping [va] and returns
    [(pte, physical address of the pte)] without any protection check
    against the requester — the hardware's own view, used by the modified
    microcode and by diagnostic tooling. *)

(** {1 Virtual memory access}

    Convenience accessors that translate then touch physical memory,
    charging cycle costs.  Unaligned accesses that cross a page boundary
    translate each page. *)

val v_read_byte : t -> mode:Mode.t -> Word.t -> (int, fault) result
val v_write_byte : t -> mode:Mode.t -> Word.t -> int -> (unit, fault) result
val v_read_word : t -> mode:Mode.t -> Word.t -> (int, fault) result
val v_write_word : t -> mode:Mode.t -> Word.t -> int -> (unit, fault) result
val v_read_long : t -> mode:Mode.t -> Word.t -> (Word.t, fault) result
val v_write_long : t -> mode:Mode.t -> Word.t -> Word.t -> (unit, fault) result

(** Allocation-free fast halves of the virtual accessors: a single-page
    access through a {!try_translate} hit performs the physical access and
    charges exactly as the full accessor would.  Reads return the value or
    {!no_translation} (never a valid datum); writes return [false] when
    the caller must take the full path.  On the sentinel return nothing
    has been charged, counted, or stored. *)

val v_read_byte_fast : t -> mode:Mode.t -> Word.t -> int
val v_read_word_fast : t -> mode:Mode.t -> Word.t -> int
val v_read_long_fast : t -> mode:Mode.t -> Word.t -> int
val v_write_byte_fast : t -> mode:Mode.t -> Word.t -> int -> bool
val v_write_word_fast : t -> mode:Mode.t -> Word.t -> int -> bool
val v_write_long_fast : t -> mode:Mode.t -> Word.t -> Word.t -> bool

val v_write_longs_fast :
  t -> mode:Mode.t -> Word.t -> Word.t array -> int -> bool
(** [v_write_longs_fast t ~mode va words n] stores [words.(i)] at
    [va + 4i] for [i < n] with one translation, when the [4n] bytes lie
    on one page whose translation {!try_translate} would resolve for a
    write (mapping off, or a TLB hit with write access and PTE<M> set)
    and whose frame is RAM.  It charges, counts and stores exactly what
    [n] {!v_write_long_fast} calls from the highest address down would:
    [n] TLB hits when mapping is on, [n] memory accesses, and the stores
    in that order.  Returns [false], having done nothing, otherwise. *)

(** {1 Translation buffer control} *)

val tbia : t -> unit
val tbis : t -> Word.t -> unit
val tb_invalidate_process : t -> unit

val tb_generation : t -> int
(** Monotonic counter bumped whenever cached translations may have become
    stale: TBIA, TBIS, process invalidation (LDPCTX), and MAPEN changes.
    Consumers that cache translation-derived state (e.g. the decoded
    instruction cache) record it at fill time and treat any change as
    invalidation. *)

(** {1 Statistics} *)

val walks : t -> int
(** Page-table walks performed (each PTE fetch counts one). *)

val modify_faults_delivered : t -> int

(** {1 Observability} *)

val trace : t -> Vax_obs.Trace.t
(** The event trace this MMU emits to; {!Vax_obs.Trace.null} (disabled)
    unless {!set_trace} wired in a live one.  Emits tlb-fill, tlb-evict
    and tlb-invalidate events. *)

val set_trace : t -> Vax_obs.Trace.t -> unit
