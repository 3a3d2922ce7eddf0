(** The data instructions' semantics, one entry per opcode.

    Moves, clears, TSTx, CMPx, INCL/DECL/MNEGL, ASHL, PUSHL, MOVAL and
    the ADD/SUB/MUL/DIV/BIS/BIC/XOR families are defined here and
    nowhere else: the stepper's [Exec.handler_of] (and with it the
    block engine's generic slot) and the fast slot tier both execute
    these entries.  An entry says what the instruction computes; which
    operands are its sources and its destination, and their widths,
    come from {!Vax_arch.Opcode.operands}.  The sources are the Read,
    Modify and Address operands in operand order (an Address operand
    supplies its address); the destination is the Write or Modify
    operand, or the implicit [-(SP)] of PUSHL. *)

open Vax_arch

type t = {
  compute : State.t -> Word.t -> Word.t -> Word.t;
      (** [compute st a b]: the result from the sources [a] and [b]
          (0 when absent), in operand order, so a two- or
          three-operand [op] computes [b op a].  Byte sources may
          carry high bits: byte entries mask them.  Sets the condition
          codes — eagerly through {!State.set_nzvc} for arithmetic and
          compares, deferred for TSTx and logical ops — unless [after]
          is set.  May raise the division-by-zero trap. *)
  after : int;
      (** moves and clears: nonzero, the deferred CC class
          ({!State.defer_cc}) recorded from the result once the
          destination is written, so a faulting store leaves the codes
          as they were; 0 otherwise *)
  overflow : bool;
      (** after the destination write, take the integer-overflow trap
          when V and PSL<IV> are set *)
  push : bool;  (** the destination is an implicit longword push *)
}

val find : Opcode.t -> t option
(** The entry of a data opcode; [None] for every other opcode.  Does
    not allocate. *)

val add : State.t -> Word.t -> Word.t -> Word.t
(** [add st a b] = [a + b], setting all four codes; AOBLSS's increment. *)

val sub : State.t -> Word.t -> Word.t -> Word.t
(** [sub st a b] = [a - b], setting all four codes; SOBGTR's decrement. *)
