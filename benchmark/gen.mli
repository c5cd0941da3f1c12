(** The benchmark's own input generators.

    They live here, not in [atp.workloads], so that a change to the
    library's generators cannot move the benchmark's inputs: every
    input is a pure function of (kind, seed, length), pinned by its
    {!digest}. *)

type kind =
  | Zipf of { pages : int }
      (** Zipf(s = 1) over [pages]; rank [k] is page [k - 1], drawn by
          rejection-inversion (Hörmann and Derflinger, 1996). *)
  | Bimodal of { pages : int; hot : int; hot_fraction : float }
      (** [hot_fraction] of the references are uniform over a
          [hot]-page region at a seeded [hot]-aligned offset, the rest
          uniform over [pages]. *)
  | Walk of { pages : int; out_degree : int; alpha : float }
      (** A random walk on a fixed random graph whose edge targets are
          bounded-Pareto([alpha]) over [pages]. *)

val pp_kind : Format.formatter -> kind -> unit

val generate : kind -> seed:int -> n:int -> (int -> unit) -> string
(** [generate kind ~seed ~n emit] calls [emit] on the [n] references
    in order and returns their digest: FNV-1a 64 over each reference as
    8 little-endian bytes, in hex.  All randomness comes from a
    SplitMix64 stream seeded with [seed]. *)

val write : kind -> seed:int -> n:int -> string -> string
(** Write the references as an ATPS file (64 Ki-reference chunks) and
    return their digest. *)
