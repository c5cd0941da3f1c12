(** A doubly-linked list of page ids with an O(1) membership index.

    Unlike {!Lru_list}, which links a fixed set of slot ids, this list
    holds arbitrary page numbers; it backs the ghost lists of ARC and
    2Q, where entries are addresses of pages that are {e not}
    resident.

    Nodes live in a recycled array pool, so steady-state operations
    ([mem], [move_to_front], [take_front]/[take_back], [remove],
    [push_*] onto a warm pool) allocate nothing; the pool doubles when
    exhausted.  Page ids must be non-negative. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val mem : t -> int -> bool

val push_front : t -> int -> unit
(** Raises [Invalid_argument] if the page is already in the list.

    @raise Invalid_argument if the page is already present. *)

val push_back : t -> int -> unit
(** @raise Invalid_argument if the page is already present. *)

val remove : t -> int -> bool
(** Returns whether the page was present. *)

val move_to_front : t -> int -> unit
(** Raises [Invalid_argument] if absent.

    @raise Invalid_argument if the page is absent. *)

val back : t -> int option

val pop_front : t -> int option

val pop_back : t -> int option

val take_back : t -> int
(** [pop_back] without the option: the removed page, or [-1] when
    empty — the allocation-free form for hot paths. *)

val to_list : t -> int list
(** Front-to-back. *)
