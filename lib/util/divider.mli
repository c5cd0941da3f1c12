(** Strength-reduced integer division by a fixed positive divisor.

    [div] and [rem] agree with [(/)] and [(mod)] for every [int]
    argument; inputs inside the precomputed safe range (about [2^31])
    take a multiply-shift fast path instead of a hardware divide. *)

type t

val make : int -> t
(** @raise Invalid_argument when the divisor is not positive. *)

val div : t -> int -> int

val rem : t -> int -> int
