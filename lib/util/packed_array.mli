(** Arrays of fixed-width unsigned integers, bit-packed.

    The decoupled TLB stores, for each virtual huge page, an array of
    [h_max] slot indices packed into a [w]-bit value.  This module is
    the faithful bit-level representation: element width is arbitrary
    (1 to 48 bits) and elements straddle byte boundaries exactly as
    they would in a hardware register. *)

type t

val create : width:int -> length:int -> t
(** All elements start at zero.  [width] in bits, 1..48 (so that a straddling element plus its bit offset always fits in a 63-bit immediate during assembly).

    @raise Invalid_argument if the length is negative or [width] is
    outside 1..48. *)

val max_value : t -> int
(** Largest representable element, [2^width - 1]. *)

val get : t -> int -> int

val set : t -> int -> int -> unit
(** Raises [Invalid_argument] if the value does not fit in [width]
    bits.

    @raise Invalid_argument if the value does not fit in [width] bits. *)

val total_bits : t -> int
(** [width * length]: the size of the value this array packs into. *)

val blit_to_bytes : t -> Bytes.t
(** The raw packed representation, for round-trip tests and for
    treating the array as an opaque TLB value. *)

val of_bytes : width:int -> length:int -> Bytes.t -> t
(** Inverse of [blit_to_bytes].  Raises [Invalid_argument] on a size
    mismatch.

    @raise Invalid_argument on a bad width or a size mismatch. *)
