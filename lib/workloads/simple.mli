(** Elementary reference patterns, for calibration and tests. *)

val uniform : virtual_pages:int -> Atp_util.Prng.t -> Workload.t
(** @raise Invalid_argument if the space is empty. *)

val sequential : virtual_pages:int -> unit -> Workload.t
(** 0, 1, 2, …, wrapping: the classic scan that defeats LRU when the
    cache is one page too small.

    @raise Invalid_argument if the space is empty. *)

val zipf : ?s:float -> virtual_pages:int -> Atp_util.Prng.t -> Workload.t
(** Zipf-popular pages ([s] defaults to 1.0): a generic skewed
    workload. *)
