(** A fully associative LRU TLB: a capacity-bounded cache from
    virtual (huge-)page numbers to payloads.

    The payload type is abstract because the users differ:
    [Atp_memsim.Walker]'s page-walk cache and victim store keep [unit],
    [Atp_memsim.Vmm] and [Atp_memsim.Nested] keep physical frames, and
    {!Split} builds on this module and carries its caller's payload. *)

type 'a t

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
}

val create : ?obs:Atp_obs.Scope.t -> entries:int -> unit -> 'a t
(** Replacement is LRU, the configuration of every experiment in the
    paper.  [obs] registers [lookups]/[hits]/[misses]/[insertions]/
    [evictions] counters under the scope's prefix and emits
    [tlb_hit]/[tlb_miss]/[eviction] trace events; when omitted the TLB
    observes into a private throwaway registry.

    @raise Invalid_argument if [entries < 1]. *)

val size : 'a t -> int

val mem : 'a t -> int -> bool
(** Does not count as a lookup and does not touch recency. *)

val lookup : 'a t -> int -> 'a option
(** A counted access: updates recency on hit, counts a miss otherwise.
    A miss does {e not} insert — the caller decides what translation to
    load (and pays ε). *)

val insert : 'a t -> int -> 'a -> (int * 'a) option
(** Insert a translation, returning the evicted (key, payload) if the
    TLB was full.  Inserting an existing key refreshes its payload and
    recency without eviction. *)

val invalidate : 'a t -> int -> bool
(** TLB shootdown of one entry. *)

val flush : 'a t -> unit
(** Full TLB flush (e.g. a context switch without ASIDs). *)

val stats : 'a t -> stats

val reset_stats : 'a t -> unit
(** Zero the counters.  {!stats} is a view of the registered obs
    counters (they are the only store), so the two can never
    desynchronize; note that two TLBs sharing one scope therefore
    aggregate — and reset — the same counters. *)
