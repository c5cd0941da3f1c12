(** Dense bit vectors.

    Used for residency maps (one bit per page slot) and the presence
    half of decoupled TLB values. *)

type t

val create : int -> t
(** [create n] is an all-zero vector of [n] bits.

    @raise Invalid_argument if the length is negative. *)

val length : t -> int

val get : t -> int -> bool

val set : t -> int -> unit

val clear : t -> int -> unit

val assign : t -> int -> bool -> unit

val pop_count : t -> int
(** Number of set bits. *)

val iter_set : (int -> unit) -> t -> unit
(** Iterate over the indices of set bits, in increasing order. *)

val first_clear : t -> int option
(** Lowest clear bit, if any. *)

val first_clear_index : t -> int
(** [first_clear] without the option: the index of the first clear
    bit, or [-1] when every bit is set. *)

val fill : t -> bool -> unit
(** Set every bit to the given value. *)
