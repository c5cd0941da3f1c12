(** An array-backed intrusive doubly-linked list over node ids
    [0 .. capacity-1].

    This is the workhorse of the O(1) LRU and CLOCK replacement
    policies: node ids are cache-slot indices, [move_to_front] is a
    touch, and [take_back] removes the eviction victim.  No allocation
    after [create]. *)

type t

val create : int -> t
(** [create capacity] has all nodes detached.

    @raise Invalid_argument if the capacity is negative. *)

val length : t -> int

val push_front : t -> int -> unit
(** Raises [Invalid_argument] if already linked.

    @raise Invalid_argument if [i] is already linked. *)

val remove : t -> int -> unit
(** Raises [Invalid_argument] if not linked.

    @raise Invalid_argument if [i] is not linked. *)

val move_to_front : t -> int -> unit
(** Raises [Invalid_argument] if not linked. *)

val front : t -> int option
(** Most recently used. *)

val take_back : t -> int
(** Unlink and return the back (least recently used) node id, or [-1]
    when the list is empty — the allocation-free eviction primitive. *)

val to_list : t -> int list
(** Front-to-back order. *)
