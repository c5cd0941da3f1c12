(** Least-recently-used replacement (Sleator–Tarjan's canonical online
    policy).  O(1) per access. *)

include Policy.S
(** [access_fast] is native (allocation-free); [access] is its boxed
    view. *)

val touch : t -> int -> bool
(** [touch t page] refreshes a resident page's recency in one probe
    and returns [true]; an absent page returns [false] and changes
    nothing.  On a resident page it is [access_fast] without the
    outcome code. *)
