(** Ring compression (paper §4.1, Figure 3).

    The VMM reserves real kernel mode to itself; the virtual machine
    perceives four modes, mapped onto the remaining three real rings:

    {v
        virtual kernel      -> real executive
        virtual executive   -> real executive
        virtual supervisor  -> real supervisor
        virtual user        -> real user
    v}

    This is Goldberg's second mapping scheme with i = 0, M = 3.  The
    execution side is implemented by the VM-emulation machinery; the
    memory side by compressing page protection codes in the shadow page
    tables ({!Vax_arch.Protection.compress}). *)

open Vax_arch

val compress_mode : Mode.t -> Mode.t
(** The real mode a virtual mode executes in. *)

val mapping_table : (Mode.t * Mode.t) list
(** [(virtual, real)] pairs, most privileged first — the data behind
    Figure 3. *)
