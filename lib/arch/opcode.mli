(** The instruction subset implemented by the simulator.

    Opcodes take their standard VAX encodings.  The [0xFD] page carries the
    extensions: WAIT (paper §5) and the PROBEVM pair (paper §4.3.3); the
    standard VAX takes a reserved-instruction fault on the whole page.

    Each instruction's operands are described by (access, width) pairs in
    evaluation order; branch displacements are a distinct access kind
    because they are not general operand specifiers. *)

type access =
  | Read  (** operand value is read *)
  | Write  (** operand is a pure destination *)
  | Modify  (** operand is read then written *)
  | Address  (** operand's address is taken (.ab/.al specifiers) *)
  | Branch_byte  (** 8-bit PC-relative displacement *)
  | Branch_word  (** 16-bit PC-relative displacement *)

type width = Byte | Word | Long

type t =
  | Halt
  | Nop
  | Rei
  | Bpt
  | Ret
  | Rsb
  | Ldpctx
  | Svpctx
  | Prober
  | Probew
  | Bsbb
  | Brb
  | Bneq
  | Beql
  | Bgtr
  | Bleq
  | Jsb
  | Jmp
  | Bgeq
  | Blss
  | Bgtru
  | Blequ
  | Bvc
  | Bvs
  | Bcc
  | Bcs
  | Brw
  | Movb
  | Cmpb
  | Clrb
  | Tstb
  | Movzbl
  | Bispsw
  | Bicpsw
  | Chmk
  | Chme
  | Chms
  | Chmu
  | Addl2
  | Addl3
  | Subl2
  | Subl3
  | Mull2
  | Mull3
  | Divl2
  | Divl3
  | Bisl2
  | Bisl3
  | Bicl2
  | Bicl3
  | Xorl2
  | Xorl3
  | Mnegl
  | Ashl
  | Movl
  | Cmpl
  | Clrl
  | Tstl
  | Incl
  | Decl
  | Mtpr
  | Mfpr
  | Movpsl
  | Pushl
  | Moval
  | Blbs
  | Blbc
  | Aoblss
  | Sobgtr
  | Calls
  | Wait  (** extension: VM idle handshake *)
  | Probevmr  (** extension: probe VM memory for read *)
  | Probevmw  (** extension: probe VM memory for write *)

val encoding : t -> int list
(** The one- or two-byte opcode. *)

val code : t -> int
(** The encoding as one integer, prefix byte high: [0x02] for REI,
    [0xFD02] for PROBEVMR.  This is the opcode word of the VM-emulation
    frame and of retire trace events. *)

val index : t -> int
(** A dense index in [\[0, index_count)], for per-opcode counters. *)

val index_count : int

val decode : int -> ?second:int -> unit -> t option
(** [decode b ()] decodes a one-byte opcode; [decode 0xFD ~second ()]
    decodes an extended one.  [None] = reserved instruction. *)

val is_extended_prefix : int -> bool
(** True for [0xFD]. *)

val operands : t -> (access * width) list
(** Operand specifiers in evaluation order. *)

(** How an instruction stands to virtualization (paper Table 1, §4.4):
    the CPU's privilege gate, the block engine's exclusions and the
    analyzers' classes all read it.  In a VM, a [Privileged] instruction
    takes the VM-emulation trap from virtual kernel mode and the
    privileged-instruction fault otherwise.  The other three classes are
    sensitive but unprivileged. *)
type sensitivity =
  | Innocuous
  | Privileged  (** HALT, LDPCTX, SVPCTX, MTPR, MFPR, PROBEVMx, WAIT *)
  | Traps_in_vm  (** always, in any mode: CHMx, REI *)
  | Composed_in_vm  (** by the microcode, without a trap: MOVPSL *)
  | Traps_on_condition  (** on an invalid shadow PTE: PROBEx (§4.3.2) *)

val sensitivity : t -> sensitivity

val privileged : t -> bool
(** [sensitivity op = Privileged].  CHM/REI/PROBE/MOVPSL are NOT
    privileged — that is the whole problem the paper solves. *)

val base_cycles : t -> int
(** Cost-model base execution time in cycles, excluding per-operand and
    memory costs (see {!Cost}). *)

val all : t list
val name : t -> string
val pp : Format.formatter -> t -> unit
val chm_target : t -> Mode.t option
(** [Some mode] for the four CHM instructions. *)
