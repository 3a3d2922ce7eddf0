(** Disassembler for the simulator's VAX subset.

    Decodes raw bytes (no CPU state needed: addressing modes are shown
    symbolically, register-relative operands as written).  Used by traces,
    debugging tools, the assembler round-trip tests, and the vaxlint
    static analyzer. *)

open Vax_arch

type operand_text = string

(** Structured operand specifier, one per operand.  Branch displacements
    are resolved to absolute target addresses ([Branch_dest]). *)
type spec =
  | Literal of int  (** short literal [S^#n], 0..63 *)
  | Index of int  (** [\[Rn\]] indexed prefix — outside the simulated subset *)
  | Register of int
  | Reg_deferred of int  (** [(Rn)] *)
  | Autodec of int  (** [-(Rn)] *)
  | Autoinc of int  (** [(Rn)+] *)
  | Autoinc_deferred of int  (** [@(Rn)+] *)
  | Immediate of int  (** [#v] — raw unsigned value of the operand width *)
  | Absolute of int  (** [@#a] *)
  | Disp of { rn : int; disp : int; deferred : bool; width : Opcode.width }
  | Branch_dest of int  (** resolved target address *)

type insn = {
  address : int;
  length : int;  (** bytes consumed *)
  opcode : Opcode.t option;
      (** [None] only for [.byte] pseudo-instructions emitted by the
          resynchronizing sweep *)
  mnemonic : string;
  specs : spec list;
      (** one per operand; a [.byte] pseudo-instruction carries its data
          byte as a single [Immediate] *)
}

val decode_one : bytes -> pos:int -> address:int -> insn option
(** Decode the instruction starting at byte offset [pos]; [address] is the
    virtual address of that byte (for branch-target rendering).  [None] on
    a reserved opcode or truncated instruction. *)

val decode_all : ?resync:bool -> bytes -> base:int -> insn list
(** Linear sweep from offset 0.  By default stops at the first undecodable
    byte; with [~resync:true] an undecodable byte is emitted as a one-byte
    [.byte] pseudo-instruction and the sweep continues, so the whole image
    is covered. *)

val spec_ends : insn -> int list
(** Byte offset, relative to the instruction start, of the end of each
    operand specifier — the updated-PC value a PC-relative displacement
    in that operand is computed against.  Empty for [.byte]
    pseudo-instructions or when the specs do not match the opcode's
    operand table. *)

val spec_to_string : spec -> operand_text
(** Render one specifier the way [to_string] does. *)

val to_string : insn -> string
(** e.g. ["1000: MOVL #0x5, R0"]; a data byte renders as
    ["1004: .byte 0xff"].  The operand text is built on each call, not
    stored at decode time. *)
