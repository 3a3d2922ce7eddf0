(** Per-instruction facts proven by a static analysis, keyed by virtual
    address.  The analysis side, [Vax_analysis.Liveness], constructs the
    table.  Nothing at run time reads it: the block engine defers
    condition codes unconditionally (see [State.cc_lazy]), so a fact
    can no longer change what a run observes.  The table remains the
    liveness pass's output, timed by the end-to-end benchmark and
    checked by its unit tests.

    A fact records:
    - [f_cc_dead]: NZVC bits proven dead immediately {e after} the
      instruction (N=8, Z=4, V=2, C=1);
    - [f_consts]: operand-index/value pairs proven constant on every
      path;
    - the analyzed opcode and length ([f_op], [f_len]), which {!find}
      uses as a guard. *)

open Vax_arch

type fact = {
  f_op : Opcode.t;  (** guard: opcode the analysis decoded at this VA *)
  f_len : int;  (** guard: instruction length the analysis decoded *)
  f_cc_dead : int;  (** NZVC bits dead after the instruction *)
  f_consts : (int * Word.t) list;
      (** operand index -> value proven constant on every path *)
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
