(** A point-in-time float metric (occupancy, load factor, latest
    latency): set overwrites, nothing accumulates. *)

type t

val create : unit -> t

val set_int : t -> int -> unit

val value : t -> float

val reset : t -> unit

val to_json : t -> Json.t
