(** The replacement-policy abstraction.

    In the paper's terms, a policy is a RAM-replacement policy or a
    TLB-replacement policy: it decides which (huge) pages are resident
    in a capacity-bounded cache.  Policies here manage abstract page
    ids; physical placement is the job of the allocation schemes in
    [atp.core], which the paper requires the policies to be oblivious
    to. *)

type outcome =
  | Hit
  | Miss of { evicted : int option }
      (** [evicted = None] when a free slot absorbed the fill. *)

(** {2 The allocation-free outcome encoding}

    Hot loops cannot afford an [outcome] block (plus an option) per
    access.  Page ids are non-negative throughout the simulator, so an
    access result fits in one untagged int: {!fast_hit} ([-1]),
    {!fast_miss_free} ([-2], a free slot absorbed the fill), or the
    evicted page itself ([>= 0]). *)

val fast_hit : int

val fast_miss_free : int

val fast_is_hit : int -> bool

val fast_is_miss : int -> bool

val fast_evicted : int -> int
(** The evicted page, or [-1] on a hit or free fill. *)

val outcome_of_fast : int -> outcome
(** @raise Invalid_argument on an int below [-2]. *)

val fast_of_outcome : outcome -> int

(** What every policy implementation provides. *)
module type S = sig
  type t

  val name : string

  val create : ?rng:Atp_util.Prng.t -> capacity:int -> unit -> t
  (** [rng] is used only by randomized policies; deterministic policies
      ignore it.  [capacity] must be at least 1. *)

  val capacity : t -> int

  val size : t -> int
  (** Number of resident pages; always [<= capacity]. *)

  val mem : t -> int -> bool

  val access : t -> int -> outcome
  (** Service a request for a page: a hit updates recency metadata; a
      miss inserts the page, evicting a victim if the cache is full. *)

  val access_fast : t -> int -> int
  (** The allocation-free form of [access]: the same state evolution,
      with the outcome encoded as {!fast_hit}, {!fast_miss_free}, or
      the evicted page (see {!fast_of_outcome}).  LRU, FIFO and 2Q
      implement it natively; the other policies encode their boxed
      outcome. *)

  val remove : t -> int -> bool
  (** Invalidate a page without an access (e.g. a shootdown).  Returns
      whether it was resident. *)

  val resident : t -> int list
  (** Unordered list of resident pages. *)
end

(** A policy instance with its state captured, for heterogeneous
    collections (the experiment driver sweeps over policies). *)
type instance = {
  name : string;
  capacity : int;
  size : unit -> int;
  mem : int -> bool;
  access : int -> outcome;
  access_fast : int -> int;  (** The policy's own {!S.access_fast}. *)
  remove : int -> bool;
  resident : unit -> int list;
}

val instantiate :
  (module S) -> ?rng:Atp_util.Prng.t -> capacity:int -> unit -> instance

val evicted : outcome -> int option
(** [None] on a hit or free fill. *)

val is_hit : outcome -> bool
