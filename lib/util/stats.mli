(** Online statistics for experiment harnesses. *)

(** Streaming mean and variance (Welford's algorithm), plus min/max. *)
module Summary : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** Raises [Invalid_argument] on a NaN observation: a NaN would
      silently poison mean/variance and, through {!Atp_obs}
      histograms, every exported snapshot downstream. *)

  val count : t -> int

  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two observations. *)

  val min : t -> float
  (** @raise Invalid_argument when the summary is empty: the fresh
      [infinity] fill sentinel is not an observation and must not leak
      into metrics output. *)

  val max : t -> float
  (** @raise Invalid_argument when the summary is empty (the
      [neg_infinity] sentinel, as for {!min}). *)

  val pp : Format.formatter -> t -> unit
  (** Empty summaries print as ["n=0"], without min/max. *)
end

(** Power-of-two histogram over non-negative integers: bucket [i]
    counts values in [[2^i, 2^(i+1))]; bucket 0 also counts 0. *)
module Log_histogram : sig
  type t

  val create : unit -> t

  val add : t -> int -> unit

  val count : t -> int

  val bucket : t -> int -> int
  (** Count in bucket [i] (0..62). *)

  val percentile : t -> float -> int
  (** [percentile t 0.99] is an upper bound (bucket ceiling) on the
      given quantile.  Raises [Invalid_argument] when empty or when the
      rank is outside [0, 1]. *)

  val pp : Format.formatter -> t -> unit
end

val pp_count : Format.formatter -> int -> unit
(** Render a count with thousands separators: [12_345_678]. *)

val pp_si : Format.formatter -> float -> unit
(** Render with an SI suffix: [1.50M], [42.0k]. *)
