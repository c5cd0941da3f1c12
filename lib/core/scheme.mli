(** A uniform face over every memory-management scheme in this
    repository, for apples-to-apples comparison.

    The paper's object of study is the {e memory-management
    algorithm}: anything that services page requests while controlling
    the TLB, the active set, and placement.  This module packages each
    implementation — physical huge pages at a fixed size, THP,
    reservation superpages, and the decoupled algorithm Z — behind one
    record, so drivers and benches can sweep over all of them without
    knowing their internals. *)

type t = {
  name : string;
  access : int -> unit;
  ledger : unit -> Atp_obs.Cost.t;
      (** the events so far; price them with {!Atp_obs.Cost.price} *)
  reset : unit -> unit;  (** zero the counters, keep the state *)
}

val run : ?warmup:int array -> t -> int array -> t
(** Play warmup, reset counters, play the trace; returns the scheme
    for chaining. *)

val physical : ?tlb_entries:int -> ram_pages:int -> huge_size:int -> unit -> t
(** The Section 6 machine at a fixed huge-page size. *)

val physical_reach :
  ?tlb_entries:int ->
  ram_pages:int ->
  huge_size:int ->
  tcache_entries:int ->
  unit ->
  t
(** The Section 6 machine with Victima-style reach extension: a
    cache-resident victim store of [tcache_entries] behind the TLB.
    Recovered misses surface as the ledger's [cheap] events; its [tlb]
    counts only full-priced misses, so {!Atp_obs.Cost.price} with a
    [tcache_epsilon] prices the two tiers separately.

    @raise Invalid_argument if [tcache_entries < 1]. *)

val thp :
  ?base_tlb_entries:int -> ?huge_tlb_entries:int -> ram_pages:int ->
  huge_size:int -> unit -> t

val superpage :
  ?base_tlb_entries:int -> ?huge_tlb_entries:int -> ram_pages:int ->
  huge_size:int -> unit -> t

val decoupled :
  ?tlb_entries:int ->
  ?seed:int ->
  ?x_policy:(module Atp_paging.Policy.S) ->
  ?y_policy:(module Atp_paging.Policy.S) ->
  ram_pages:int ->
  w:int ->
  unit ->
  t
(** The Theorem 4 algorithm Z with the given policies (LRU/LRU by
    default). *)

val hybrid :
  ?tlb_entries:int -> ram_pages:int -> chunk:int -> w:int -> unit -> t
(** The Section 8 hybrid scheme. *)

val compare_all :
  ?warmup:int array ->
  ?tcache_epsilon:float ->
  epsilon:float ->
  t list ->
  int array ->
  (string * int * int * float) list
(** Run every scheme on the same trace; returns
    [(name, ios, tlb + cheap, cost)] rows from each ledger (the event
    column counts every TLB miss, however priced).

    @raise Invalid_argument unless [0 <= tcache_epsilon <= epsilon]. *)
