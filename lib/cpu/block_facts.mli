(** Per-instruction facts proven by a static analysis, keyed by virtual
    address — the narrow interface through which the superblock slot
    compiler consumes liveness and constant-propagation results without
    [lib/cpu] depending on the analysis internals (the analysis side,
    [Vax_analysis.Liveness], constructs the table).

    A fact licenses two compile-time specializations:
    - [f_cc_dead]: NZVC bits proven dead immediately {e after} the
      instruction (N=8, Z=4, V=2, C=1).  When N, Z and V are all dead
      the fast slot tier defers the condition-code update (see
      [State.cc_lazy]); the update stays architecturally invisible
      because every PSL observer materializes first.
    - [f_consts]: operand-index/value pairs proven constant on every
      path, used to pre-fold pure register source operands into
      immediates.

    The [f_op]/[f_len] guard makes a stale fact harmless when the
    modified bytes change the decode; [f_bytes] carries the exact
    analyzed instruction bytes so the compiler can additionally reject
    a same-opcode byte patch (checked lazily against the page store
    generation — see [Block_cache.fact_stamps]). *)

open Vax_arch

type fact = {
  f_op : Opcode.t;  (** guard: opcode the analysis decoded at this VA *)
  f_len : int;  (** guard: instruction length the analysis decoded *)
  f_cc_dead : int;  (** NZVC bits dead after the instruction *)
  f_consts : (int * Word.t) list;
      (** operand index -> value proven constant on every path *)
  f_bytes : string;
      (** the instruction bytes the analysis decoded ([""] when images
          collide: byte verification unavailable, op/len guard only) *)
}

val n_bit : int
val z_bit : int
val v_bit : int
val c_bit : int
val all_cc : int
val nzv : int

type t = {
  tbl : (int, fact) Hashtbl.t;
  mutable dead_reg_writes : int;
      (** statically detected dead longword register writes, R0..R14
          (metrics only — register writes are never elided) *)
  mutable summary_calls : int;
      (** JSB/BSBB/CALLS sites solved through a usable callee summary *)
  mutable summary_fallbacks : int;
      (** call sites that fell back to all-read/all-clobbered (computed
          callee, cross-image target, or summary forced to top) *)
  mutable solver_visits : int;
  mutable solver_updates : int;
}

val create : unit -> t

val add : t -> va:int -> fact -> unit
(** Insert a fact; on a VA collision between images, keep the
    intersection of what both agree on (conflicting decodes keep
    nothing). *)

val find : t -> va:int -> op:Opcode.t -> len:int -> fact option
(** The fact at [va], or [None] when absent or the opcode/length guard
    rejects it. *)

(** {1 Gauges} *)

val sites : t -> int
val cc_dead_sites : t -> int
val const_ops : t -> int
