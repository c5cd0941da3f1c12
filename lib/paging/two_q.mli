(** The 2Q policy (Johnson & Shasha, VLDB 1994), full version: a FIFO
    probation queue [A1in], a ghost queue [A1out] of recently evicted
    addresses, and a protected LRU main queue [Am].  A page is promoted
    to [Am] only when re-referenced after falling out of [A1in], which
    filters single-scan pollution. *)

include Policy.S
(** [access_fast] is native (allocation-free); [access] is its boxed
    view. *)
