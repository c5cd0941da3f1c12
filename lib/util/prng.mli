(** Deterministic pseudo-random number generation.

    Every randomized component in this repository draws from an explicit
    generator state, so that whole experiments are reproducible from a
    single integer seed.  The generator is xoshiro256** seeded via
    SplitMix64, which is the standard pairing recommended by the
    xoshiro authors: SplitMix64 equidistributes the 64-bit seed into
    the 256-bit state, and xoshiro256** passes BigCrush. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a fresh generator.  The default seed is a
    fixed constant, so two runs of the same program produce the same
    stream unless a seed is given. *)

val copy : t -> t
(** Independent snapshot of the current state. *)

val split : t -> t
(** [split t] returns a new generator seeded from [t]'s stream.  Use it
    to give subcomponents independent streams that are still a pure
    function of the master seed. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** 62 uniformly random bits as a non-negative OCaml [int]. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n).  Requires [n > 0].  Uses rejection
    sampling, so the result is exactly uniform.

    @raise Invalid_argument if [n <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform on the inclusive range [lo, hi].  Requires [lo <= hi].

    @raise Invalid_argument if [lo > hi]. *)

val float : t -> float
(** Uniform on [0, 1), with 53 bits of precision. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
