(** VAX access modes (protection rings).

    The VAX defines four access modes; mode 0 (kernel) is the most
    privileged and mode 3 (user) the least.  The paper uses "ring" and
    "access mode" interchangeably, and so do we. *)

type t = Kernel | Executive | Supervisor | User

val to_int : t -> int
(** Kernel = 0, Executive = 1, Supervisor = 2, User = 3, as encoded in the
    PSL current/previous mode fields and PTE protection codes. *)

val of_int : int -> t
(** Inverse of {!to_int}; raises [Invalid_argument] outside [0, 3]. *)

val all : t list
(** All four modes, most privileged first. *)

val more_privileged : t -> t -> bool
(** [more_privileged a b] is true when [a] is strictly more privileged
    (numerically smaller) than [b]. *)

val at_least_as_privileged : t -> t -> bool

val least_privileged : t -> t -> t
(** The less privileged (numerically larger) of the two modes.  Used by
    PROBE, which checks access for the less privileged of its operand mode
    and PSL<PRV>. *)

val most_privileged : t -> t -> t
(** The more privileged (numerically smaller) of the two modes.  Used by
    CHM, which changes to the more privileged of its target mode and the
    current mode. *)

val name : t -> string
val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
val compare : t -> t -> int
