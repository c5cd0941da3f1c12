(** A polymorphic binary min-heap.

    Used with lazy deletion by the LFU policy (priority = frequency)
    and by Belady's OPT (priority = negated next-use time). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> unit -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option

val pop : 'a t -> 'a option
