(** A monotonically increasing integer metric.  Incrementing is one
    mutable-field write, cheap enough for simulator hot paths. *)

type t

val create : unit -> t

val incr : t -> unit

val add : t -> int -> unit

val value : t -> int

val reset : t -> unit

val to_json : t -> Json.t
