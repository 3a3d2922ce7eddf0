(** Process control block layout: the byte offsets from PCBB at which
    LDPCTX loads, and SVPCTX saves, a process's context.  The microcode
    and the VMM both address the PCB through these: KSP, ESP, SSP, USP
    at [sp 0]–[sp 3] (0–12), R0–R13 at [reg 0]–[reg 13] (16–68), PC 72,
    PSL 76, P0BR 80, P0LR 84, P1BR 88, P1LR 92, 96 bytes in all. *)

val size : int
val sp : int -> int
val reg : int -> int
val pc : int
val psl : int
val p0br : int
val p0lr : int
val p1br : int
val p1lr : int
