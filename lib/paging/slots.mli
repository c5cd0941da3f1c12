(** Internal slot bookkeeping shared by the list-based policies.

    A cache of capacity [c] owns slots [0..c-1]; this module tracks the
    page occupying each slot and the inverse page-to-slot index, leaving
    the eviction discipline (the interesting part) to each policy. *)

type t

val create : int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int

val size : t -> int

val is_full : t -> bool

val find_slot : t -> int -> int
(** The slot holding the page, or [-1] when absent: one allocation-free
    probe. *)

val page_of_slot : t -> int -> int
(** Raises [Invalid_argument] if the slot is free.

    @raise Invalid_argument on a free slot. *)

val alloc : t -> int -> int
(** [alloc t page] places [page] in a free slot and returns it.  Raises
    [Invalid_argument] if full or if the page is already resident.

    @raise Invalid_argument if the page is already resident or the cache
    is full. *)

val release : t -> int -> int
(** [release t slot] frees the slot and returns the page it held. *)

val resident : t -> int list
