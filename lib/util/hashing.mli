(** Seeded integer hash functions.

    The balls-and-bins allocators of the paper need families of
    independent hash functions over virtual page addresses.  We model a
    family member as a fixed 64-bit avalanche mixer salted with a
    per-function random seed; distinct seeds give (empirically)
    independent functions, and the adversaries in this codebase are
    oblivious to the seeds, matching the paper's obliviousness
    assumption. *)

val hash : seed:int -> int -> int
(** [hash ~seed x] is a non-negative 62-bit hash of [x] salted by
    [seed]. *)

val hash_in : seed:int -> int -> int -> int
(** [hash_in ~seed n x] maps [x] to a bucket in [0, n).  Requires
    [n > 0].  Uses the high-bits multiply trick rather than [mod], so
    all hash bits contribute.

    @raise Invalid_argument if the range is empty or at least [2^30]. *)

type family
(** A family of [k] independent hash functions with a common range. *)

val family : Prng.t -> k:int -> range:int -> family
(** Draw [k] fresh seeds from the generator.  [range] is the common
    codomain size.

    @raise Invalid_argument if [k <= 0] or the range is empty. *)

val k : family -> int

val range : family -> int

val apply : family -> int -> int -> int
(** [apply fam i x] applies the [i]th function (0-based) to [x],
    yielding a value in [0, range). *)
