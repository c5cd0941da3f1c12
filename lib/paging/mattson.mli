(** Single-pass LRU miss-ratio curves via Mattson stack distances.

    LRU has the inclusion property, so one pass over a trace yields the
    miss count for {e every} cache size at once: the reuse (stack)
    distance of each access — the number of distinct pages referenced
    since the previous access to the same page — is a hit in a cache of
    capacity [c] iff it is smaller than [c].  Distances are computed
    with a Fenwick tree over access timestamps in O(log n) per access.

    Experiments use this to pick RAM sizes (e.g. "just below the
    footprint", Figure 1c) and to draw miss curves without re-running
    the simulator per capacity. *)

type t

val of_trace : int array -> t

val accesses : t -> int

val cold_misses : t -> int
(** First-ever accesses (infinite stack distance). *)

val distinct_pages : t -> int

val misses : t -> int -> int
(** [misses t c]: LRU misses on the processed trace with capacity [c].
    Requires [c >= 1].

    @raise Invalid_argument if [c < 1]. *)

val curve : t -> capacities:int list -> (int * int) list
(** [(c, misses c)] rows. *)

val working_set_size : t -> fraction:float -> int
(** Smallest capacity whose hit ratio over non-cold accesses reaches
    [fraction] (e.g. 0.999): a principled "footprint" notion.  Raises
    [Invalid_argument] if [fraction] is outside (0, 1].

    @raise Invalid_argument if [fraction] is outside [0, 1]. *)
