(** Miss-counting cache simulation: the classical paging problem of
    Sleator and Tarjan, which Lemma 1 reduces both halves of the
    address-translation problem to. *)

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;
}

val run : Policy.instance -> int array -> stats
(** Service every request in the trace. *)

val miss_rate : stats -> float
(** Misses per access; 0 for an empty trace. *)
