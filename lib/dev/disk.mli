(** Block-storage device (512-byte blocks) with two control interfaces:

    - the typical VAX style: memory-mapped control registers in I/O space
      driven with ordinary memory instructions — the style the paper says
      is expensive to emulate (§4.4.3); and
    - a host-level [submit] API with the same latency model, used by the
      VMM's KCALL start-I/O emulation.

    MMIO register layout (longwords from the region base):
    {v
      +0  CSR    write 1 = read block into memory, 2 = write block from
                 memory; read: bit0 busy, bit5 error, bit6 IE, bit7
                 done; writing done clears done and error
      +4  BLOCK  block number
      +8  ADDR   physical memory address of the 512-byte buffer
    v}
    Completion raises SCB vector 0x100 at IPL 21 when IE is set. *)

open Vax_arch
open Vax_cpu
open Vax_mem

type t

val ipl : int (* 21 *)
val mmio_base : Word.t
val mmio_size : int

val bit_busy : int
val bit_error : int
val bit_ie : int
val bit_done : int

val create :
  sched:Sched.t -> cpu:State.t -> phys:Phys_mem.t -> blocks:int -> unit -> t
(** Creates the device and registers its MMIO region. *)

val blocks : t -> int

val read_block : t -> int -> bytes
val write_block : t -> int -> bytes -> unit
(** Direct host access (loaders, test setup); no latency, no interrupt. *)

val submit :
  t ->
  write:bool ->
  block:int ->
  phys_addr:Word.t ->
  on_complete:(bool -> unit) ->
  unit
(** Queue a transfer between the block and physical memory with the
    device's latency; [on_complete ok] fires at completion time (the VMM
    uses it to post a virtual interrupt).  [ok] is false when the
    transfer failed with the error a real controller latches in CSR bit 5
    (see {!arm_fault}): no data moved.  No real interrupt is raised. *)

val io_count : t -> int
(** Transfers completed. *)

(** {2 Fault injection} *)

val set_inject : t -> Vax_fault.Engine.t -> unit
(** Wire the injection engine; every operation start then counts as a
    [device-op] trigger event. *)

val arm_fault : t -> timeout:bool -> unit
(** Make the next operation fail: with [timeout] it never completes
    (MMIO stays busy forever); otherwise it completes on time with CSR
    bit 5 (error) latched and no data transferred.  One-shot.  Used as
    the engine's disk action callback. *)
