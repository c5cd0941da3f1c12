(** An array-backed intrusive doubly-linked list over node ids
    [0 .. capacity-1].

    This is the workhorse of the O(1) LRU and CLOCK replacement
    policies: node ids are cache-slot indices, [move_to_front] is a
    touch, and [back] is the eviction victim.  No allocation after
    [create]. *)

type t

val create : int -> t
(** [create capacity] has all nodes detached.

    @raise Invalid_argument if the capacity is negative. *)

val length : t -> int

val push_front : t -> int -> unit
(** Raises [Invalid_argument] if already linked.

    @raise Invalid_argument if [i] is already linked. *)

val push_back : t -> int -> unit
(** Raises [Invalid_argument] if already linked.

    @raise Invalid_argument if [i] is already linked. *)

val remove : t -> int -> unit
(** Raises [Invalid_argument] if not linked.

    @raise Invalid_argument if [i] is not linked. *)

val move_to_front : t -> int -> unit
(** Raises [Invalid_argument] if not linked. *)

val move_to_back : t -> int -> unit

val front : t -> int option
(** Most recently used. *)

val back : t -> int option
(** Least recently used. *)

val pop_back : t -> int option
(** Remove and return the back node. *)

val take_back : t -> int
(** [pop_back] without the option: the unlinked back node id, or [-1]
    when the list is empty — the allocation-free eviction primitive. *)

val to_list : t -> int list
(** Front-to-back order. *)
