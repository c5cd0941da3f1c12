(** Per-tenant simulator state, keyed by tenant id.

    A thin layer over {!Atp_util.Int_table.Poly} that additionally
    tracks {e peak} occupancy: the fleet's memory guarantee is
    O(active tenants) — not O(tenants ever seen) — and the churn tests
    assert it by comparing [peak] against the configured active-tenant
    cap, far below the total tenant count. *)

type 'a t

val create : ?initial_capacity:int -> unit -> 'a t

val peak : 'a t -> int
(** Largest number of tenants ever held at once. *)

val find : 'a t -> int -> 'a option

val set : 'a t -> int -> 'a -> unit
(** Insert or overwrite. *)

val remove : 'a t -> int -> bool
(** Returns whether the tenant was present. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
