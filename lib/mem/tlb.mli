(** Translation buffer.

    Caches valid PTEs keyed by virtual page, as two 2-way set-associative
    banks: one for system (S-space) translations, one for process (P0/P1)
    translations, like the split translation buffer of the real hardware.
    Per the architecture, hardware may cache a PTE only while it is valid;
    software that changes a valid PTE must issue TBIS/TBIA, and LDPCTX
    invalidates all process entries.  The modify bit is cached so that
    writes to already-modified pages need no walk.

    TBIA and LDPCTX-style invalidation are O(1): each bank carries a
    generation counter, and a cached slot is live only while its recorded
    generation matches the bank's current one. *)

open Vax_arch

type t

type entry = {
  pfn : int;
  prot : Protection.t;
  acc : int;  (** {!Protection.access_mask}[ prot], precomputed at fill *)
  mutable m : bool;
  system : bool;  (** S-region entry: survives process context switch *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] sizes the buffer (default 2048 entries, split evenly
    between the banks, two ways per set, set count rounded up to a power
    of two).  A fill whose set is full of other live translations evicts
    one of them, which is always safe. *)

val capacity : t -> int

val null_entry : entry
(** Miss sentinel for {!find_or_null}; compare with [==]. *)

val find_or_null : t -> Word.t -> entry
(** Direct-mapped lookup by virtual address; returns {!null_entry} on a
    miss.  Does {e not} touch the hit/miss counters — the MMU hot path
    counts the outcome itself via {!count_hit}/{!count_miss} so that a
    fast-path probe followed by the full path is counted exactly once.
    Allocation-free on both outcomes, with no exception machinery. *)

val find : t -> Word.t -> entry
(** {!find_or_null} raising [Not_found] on a miss. *)

val count_hit : t -> unit
val count_miss : t -> unit

val count_hits : t -> int -> unit
(** [count_hits t n] counts [n] hits at once. *)

val lookup : t -> Word.t -> entry option
(** Counted lookup: [find] plus a hit or miss count (the cold-path
    convenience used by PROBE). *)

val insert : t -> Word.t -> entry -> unit
val invalidate_single : t -> Word.t -> unit

val mutation_generation : t -> int
(** Counter bumped by every fill and invalidation (and by the MMU on
    MAPEN changes, via {!touch}).  While it is unchanged, no lookup's
    outcome can have changed: a read/execute translation that hit keeps
    hitting with the same entry.  Lets an instruction-fetch fast path
    prove a repeat translation without performing it.  [entry.m] flips
    are not counted — they affect writes only. *)

val touch : t -> unit
(** Bump {!mutation_generation} for an external event (MAPEN change)
    that alters translation outcomes without touching the buffer. *)

val invalidate_all : t -> unit
(** Drop every entry by bumping both bank generations; O(1). *)

val invalidate_process : t -> unit
(** Drop all process (P0/P1) entries by bumping the process bank
    generation (LDPCTX semantics); O(1). *)

val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Live entries displaced by a conflicting fill (direct-mapped
    aliasing). *)

val reset_stats : t -> unit

val entry_count : t -> int
(** Number of live entries; O(capacity), for tests and diagnostics. *)
