(** Least-recently-used replacement (Sleator–Tarjan's canonical online
    policy).  O(1) per access. *)

include Policy.S
(** [access_fast] is native (allocation-free); [access] is its boxed
    view. *)
