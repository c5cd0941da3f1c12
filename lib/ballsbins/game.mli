(** The dynamic balls-and-bins game state of Section 4.

    Bins model RAM buckets; balls model pages.  The game records which
    bin (and which {e layer} within the strategy, e.g. Iceberg's
    front yard vs. back yard) each ball occupies, maintains per-bin
    loads, and tracks the maximum load in O(1) amortized time.  The
    game enforces the paper's {e stability} requirement: a placed ball
    cannot move until it is deleted. *)

type t

val create : ?layers:int -> bins:int -> unit -> t
(** [layers] defaults to 1; Iceberg[d] uses 2 (front yard and back
    yard).

    @raise Invalid_argument unless there is at least one bin and one layer. *)

val bins : t -> int

val layers : t -> int

val balls : t -> int
(** Number of balls currently present. *)

val load : t -> int -> int
(** Total load of a bin across layers. *)

val layer_load : t -> layer:int -> int -> int

val max_load : t -> int
(** Current maximum total load over all bins. *)

val bin_of : t -> int -> int option
(** Which bin a ball is in, if present. *)

val place : t -> ball:int -> bin:int -> layer:int -> unit
(** Raises [Invalid_argument] if the ball is already present.

    @raise Invalid_argument if the ball is already placed (a stability violation). *)

val remove : t -> ball:int -> int
(** Deletes the ball, returning the bin it was in.  Raises
    [Invalid_argument] if absent.

    @raise Invalid_argument if the ball is not present. *)

val loads : t -> int array
(** A copy of the per-bin total loads. *)
