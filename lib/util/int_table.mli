(** An open-addressing hash table from non-negative ints to ints.

    Page tables and residency indexes are hot paths of the simulator;
    this table avoids the boxing and polymorphic hashing of [Hashtbl].
    Keys must be non-negative (virtual/physical page numbers always
    are).  Linear probing with backward-shift deletion, so there are
    no tombstones and load stays honest under churn. *)

type t

val create : ?initial_capacity:int -> unit -> t

val length : t -> int

val mem : t -> int -> bool

val find : t -> int -> int option

val find_exn : t -> int -> int
(** Raises [Not_found]. *)

val find_or : t -> int -> int -> int
(** [find_or t key default] is the bound value, or [default] when the
    key is absent — the allocation-free [find] for hot paths. *)

val set : t -> int -> int -> unit
(** Insert or overwrite. *)

val incr_by : t -> int -> int -> int
(** [incr_by t key delta] adds [delta] to the value stored for [key]
    (treating an absent key as [0]) in a single probe and returns the
    new value.  The entry remains even when the new value is [0];
    callers that need absence semantics must {!remove} it. *)

val add_if_absent : t -> int -> int -> bool
(** Returns [true] if inserted, [false] if the key was present
    (in which case the value is unchanged). *)

val remove : t -> int -> bool
(** Returns whether the key was present. *)

val iter : (int -> int -> unit) -> t -> unit

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val keys : t -> int list
(** Unordered. *)

(** The same open-addressing table with arbitrary (boxed) values: the
    replacement for [(int, 'a) Hashtbl.t] on hot paths, keeping integer
    hashing monomorphic while still carrying a payload per page.

    A removed slot may retain its last value until overwritten; use
    {!Poly.clear} to drop every payload reference at once. *)
module Poly : sig
  type 'a t

  val create : ?initial_capacity:int -> unit -> 'a t

  val length : 'a t -> int

  val mem : 'a t -> int -> bool

  val find : 'a t -> int -> 'a option

  val find_exn : 'a t -> int -> 'a
  (** @raise Not_found when the key is absent. *)

  val find_or : 'a t -> int -> 'a -> 'a
  (** [find_or t key default] is the bound value, or [default] when
      the key is absent — the allocation-free [find] for hot paths. *)

  val set : 'a t -> int -> 'a -> unit
  (** Insert or overwrite. *)

  val remove : 'a t -> int -> bool
  (** Returns whether the key was present. *)

  val iter : (int -> 'a -> unit) -> 'a t -> unit

  val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

  val clear : 'a t -> unit
end
