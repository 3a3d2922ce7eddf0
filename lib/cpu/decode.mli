(** Instruction and operand-specifier decoding.

    Implements the VAX general operand specifiers: short literal (modes
    0–3), register (5), register deferred (6), autodecrement (7),
    autoincrement / immediate (8), autoincrement deferred / absolute (9),
    and byte/word/longword displacement, plain and deferred (A–F).
    Indexed mode (4) is outside our subset and takes a
    reserved-addressing-mode fault.

    Register side effects (autoincrement/-decrement) are applied to the
    CPU state as they are decoded, and recorded so the microcode can undo
    them when an instruction must back out (fault-style exceptions,
    including the VM-emulation trap).

    Decoding is split in two: a static parse of the instruction bytes into
    a {!Decode_cache.template}, and a dynamic evaluation of the template
    against current machine state.  {!decode} does both, interleaved
    per-operand exactly as a one-pass decoder would (so faults and side
    effects occur in the same order); {!operandize} replays a cached
    template, skipping the byte fetches. *)

open Vax_arch

type loc =
  | Reg of int
  | Mem of Word.t  (** virtual address *)
  | Imm of Word.t  (** literal or immediate: not writable *)

type operand = {
  loc : loc;
  value : Word.t;
      (** fetched for Read/Modify accesses, raw; {!no_value} otherwise *)
  width : Opcode.width;
  access : Opcode.access;
  side_effect : (int * int) option;  (** (register, signed delta) applied *)
  branch_target : Word.t option;
}

val no_value : Word.t
(** [-1], never a longword: the [value] of an operand not fetched at
    decode time. *)

type decoded = {
  opcode : Opcode.t;
  operands : operand list;
  length : int;  (** total instruction bytes *)
  next_pc : Word.t;
  tmpl : Decode_cache.template;  (** static half, for the decode cache *)
}

val undecoded : decoded
(** A placeholder meaning "not decoded (yet)", for callers that hold a
    decode result across a [try]; compare it with [==]. *)

val decode : State.t -> decoded
(** Decode the instruction at the current PC.  Applies register side
    effects.  On any fault (memory, reserved opcode/addressing), side
    effects already applied are undone and the fault re-raised; the PC is
    not moved. *)

val operandize : State.t -> Decode_cache.template -> start_pc:Word.t -> decoded
(** Evaluate a cached template as if the instruction at [start_pc] had
    just been decoded: charges the same per-specifier cycles, applies the
    same side effects (undone on fault), fetches Read/Modify operand
    values — everything {!decode} does except re-reading the instruction
    bytes. *)

val undo_side_effects : State.t -> decoded -> unit
(** Back out all autoincrement/-decrement effects of a decoded
    instruction (used before delivering a fault-style exception). *)

val read_value : State.t -> operand -> Word.t
(** The operand's raw value; fetches from memory for [Mem] locations when
    it was not prefetched. *)

val write_value : State.t -> operand -> Word.t -> unit
(** Store to the operand location, respecting width (byte and word stores
    to registers merge into the low bits). *)

val capture_vm_operands : State.exit_record -> decoded -> unit
(** Write the decoded operands into the exit record's VM-emulation
    operand fields (see {!State.exit_record}). *)

val width_bytes : Opcode.width -> int
