(** Name-indexed access to every online policy, for CLI drivers and
    parameter sweeps. *)

val all : (module Policy.S) list
(** Every online policy in this library. *)

val names : string list

val find : string -> (module Policy.S) option

val find_exn : string -> (module Policy.S)
(** Raises [Invalid_argument] with the list of known names.

    @raise Invalid_argument on an unknown policy name. *)
