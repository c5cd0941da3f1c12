(** A hardware page-table walker with a page-walk cache (PWC) and an
    optional cache-resident translation tier.

    The paper treats the TLB-miss cost ε as a model parameter ("it can
    take hundreds or even thousands of CPU cycles to perform an
    address translation in the page table").  This module grounds that
    number: a TLB miss triggers a radix walk of the {!Page_table},
    each level costing a memory access unless the walker's PWC already
    holds the matching interior entry — the MMU caches (paging
    structure caches) real CPUs implement.  Huge-page leaves terminate
    walks early, which is the second, often forgotten, benefit of
    large pages.

    The optional second tier models Victima-style reach extension
    (PAPERS.md): leaf PTEs cached in the data-cache hierarchy, so a
    TLB miss can be satisfied by one cache access — a cost strictly
    between a TLB hit and a full walk — instead of up to four
    page-table loads.  With [tcache_entries = 0] (the default) the
    walker's behaviour, costs, stats, and obs output are byte-identical
    to a walker without the tier.

    [epsilon] converts the measured average walk latency into the
    paper's ε by dividing by the cost of an IO in cycles. *)

type tcache_mode =
  | Inclusive
      (** every completed walk also caches its leaf PTE in the tier *)
  | Exclusive
      (** victim store: filled only by {!deposit} (TLB-evicted PTEs,
          as Victima does); a hit migrates the entry back out *)

type config = {
  pwc_entries : int;  (** entries of the page-walk cache (default 32) *)
  memory_latency : int;  (** cycles per page-table memory access (default 100) *)
  pwc_latency : int;  (** cycles for a PWC probe (default 2) *)
  tcache_entries : int;
      (** cache-resident PTE store capacity; 0 disables the tier
          (default 0) *)
  tcache_latency : int;
      (** cycles for the cache-hierarchy PTE probe, paid on hit and
          miss alike when the tier is enabled (default 30) *)
  tcache_mode : tcache_mode;  (** default [Inclusive] *)
}

val default_config : config

type result = {
  mapping : Page_table.mapping option;
  memory_accesses : int;  (** page-table loads actually performed *)
  cycles : int;
}

type stats = {
  walks : int;
  total_cycles : int;
  total_memory_accesses : int;
  pwc_hits : int;
  tcache_hits : int;  (** walks satisfied from the cache-resident tier *)
}

type t

val create : ?config:config -> ?obs:Atp_obs.Scope.t -> Page_table.t -> t
(** [obs] registers [walks]/[pwc_hits]/[memory_accesses] counters and a
    [walk_cycles] histogram (mirroring {!stats}), plus the PWC's TLB
    counters under the sub-scope [pwc].  When the translation-cache
    tier is enabled it additionally registers [tcache_hits] and the
    tier's TLB counters under [tcache]; when disabled those names are
    absent, keeping the snapshot identical to a pre-tier walker.

    @raise Invalid_argument if [tcache_entries < 0]. *)

val translate : t -> int -> result
(** Walk the table for a virtual page: probe the cache-resident tier
    (if enabled), then consult and fill the PWC for the radix walk. *)

val deposit : t -> int -> unit
(** Hand a leaf translation to the cache-resident tier — the owner
    calls this when its TLB evicts an entry, modelling Victima's
    caching of TLB-evicted PTEs.  A no-op when the tier is disabled. *)

val invalidate : t -> unit
(** Flush the PWC and the cache-resident tier (a bulk unmap, mirroring
    a full MMU-cache flush). *)

val invalidate_page : t -> int -> unit
(** INVLPG-style invalidation: drop the PWC interior entries whose
    prefix covers [vpage] and the page's cache-resident PTE, leaving
    every unrelated entry intact.  Single-page unmaps use this so one
    unmap no longer destroys the whole walk-cache working set. *)

val tcache_enabled : t -> bool

val stats : t -> stats

val average_cycles : t -> float
(** Mean walk latency; 0 before any walk. *)

val epsilon : t -> io_latency_cycles:int -> float
(** [average_cycles / io_latency_cycles]: the measured ε of the
    address-translation cost model for this table and access
    pattern.

    @raise Invalid_argument if [io_latency_cycles <= 0]. *)

val tcache_epsilon : epsilon:float -> tcache_latency:int -> float
(** The abstract model's price of a miss recovered by the tier:
    [min ε (ε·tcache_latency / full-walk-cycles)], a full walk loading
    every {!Page_table.levels} level at the default [memory_latency]. *)
