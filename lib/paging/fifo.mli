(** First-in-first-out replacement: eviction order is insertion order;
    hits do not refresh a page. *)

include Policy.S
(** [access_fast] is native (allocation-free); [access] is its boxed
    view. *)
