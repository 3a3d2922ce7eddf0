(** User-mode workload programs for the Mini operating systems.

    Each generator returns a {!Vax_vmos.Minivms.program} assembled at P0
    origin 0.  The [editing] and [transaction] programs reproduce the
    flavour of the paper's benchmark mix ("interactive editing and
    transaction processing", §7.3): editing is memory- and
    syscall-intensive with full-ring CHMS screen updates; transaction
    processing is disk-I/O- and record-logging-intensive.  The rest are
    microbenchmarks for specific experiments. *)

open Vax_vmos

val hello : ident:int -> Minivms.program
(** Prints a greeting through the full CHMS -> CHME -> CHMK chain, then
    exits. *)

val compute : ident:int -> iterations:int -> Minivms.program
(** Pure user-mode arithmetic; one console character at the end.  The
    Popek–Goldberg "efficiency" workload: almost everything should run
    natively in a VM. *)

val editing : ident:int -> rounds:int -> Minivms.program
(** Interactive-editing simulation: keystroke bursts into a paged buffer
    (demand-zero + modify faults), a CHMS screen update per round, and a
    short sleep every few rounds (think time). *)

val transaction : ident:int -> count:int -> Minivms.program
(** Transaction processing: read a record block, update fields, write it
    back, log one line through the executive record service. *)

val ipl_storm : iterations:int -> Minivms.program
(** MTPR-to-IPL microbenchmark (kernel service loop) — experiment E4. *)

val syscall_storm : iterations:int -> Minivms.program
(** Tight CHMK GETPID loop. *)

val probe_storm : iterations:int -> Minivms.program
(** Tight PROBE loop via the kernel access-check service. *)

val io_storm : ident:int -> count:int -> Minivms.program
(** Back-to-back disk block I/O, for the start-I/O-vs-MMIO experiment. *)

val calls : ident:int -> rounds:int -> Minivms.program
(** Call-heavy microworkload: a three-deep BSBB/JSB chain plus a CALLS
    frame per round, with caller-saved scratch registers the callees
    overwrite — the stress case for interprocedural callee summaries. *)
