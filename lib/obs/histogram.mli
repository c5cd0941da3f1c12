(** A power-of-two histogram over non-negative integers, paired with a
    streaming summary (mean/stddev/min/max).  Reuses
    {!Atp_util.Stats.Log_histogram} and {!Atp_util.Stats.Summary}, so
    [observe] costs two array/field updates. *)

type t

val create : unit -> t

val observe : t -> int -> unit
(** Raises [Invalid_argument] on negative values (log buckets). *)

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val percentile : t -> float -> int
(** Bucket-ceiling upper bound on the quantile; 0 when empty. *)

val summary : t -> Atp_util.Stats.Summary.t

val reset : t -> unit

val to_json : t -> Json.t
(** [{"count":…,"mean":…,"min":…,"max":…,"p50":…,"p99":…}]; min/max
    are [null] when empty. *)
