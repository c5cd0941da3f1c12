(** The trace-driven TLB+RAM simulator of Section 6.

    Configuration matches the paper's experiments: a fully associative
    TLB with ℓ entries managed by LRU, RAM managed by LRU, a base page
    of 4 KiB, and a huge-page size [h ∈ {1, 2, 4, …}] in base pages.
    Each TLB entry covers [h] virtually contiguous pages that map to
    [h] physically contiguous, aligned frames; consequently each page
    fault moves [h] pages at a cost of [h] IOs (page-fault
    amplification), and RAM is allocated in aligned order-[log2 h]
    blocks from a buddy allocator.

    Costs follow the address-translation cost model: an IO costs 1, a
    TLB miss costs ε, a TLB hit costs 0, and evictions are free. *)

type config = {
  ram_pages : int;  (** P, in base pages *)
  tlb_entries : int;  (** ℓ *)
  huge_size : int;  (** h, a power of two, in base pages *)
  epsilon : float;  (** unread: ε is an argument of {!cost} *)
  tcache_entries : int;
      (** capacity of the Victima-style cache-resident victim store
          behind the TLB; 0 disables it (default 0), keeping
          behaviour and obs output byte-identical to the two-level
          model *)
  ram_policy : (module Atp_paging.Policy.S);
  tlb_policy : (module Atp_paging.Policy.S);
  seed : int;
}

val default_config : config
(** 1536 TLB entries, LRU everywhere, ε = 0.01, h = 1, reach extension
    off; RAM size must be set per experiment. *)

type counters = {
  accesses : int;
  tlb_hits : int;
  tlb_misses : int;
  tcache_hits : int;
      (** the subset of [tlb_misses] recovered from the cache-resident
          victim store instead of paying a full miss *)
  page_faults : int;  (** huge-unit faults *)
  ios : int;  (** base-page IOs: [huge_size] per fault *)
}

val ledger : counters -> Atp_obs.Cost.t
(** IOs, full-priced misses [tlb_misses − tcache_hits], and the
    [tcache_hits] as [cheap] events, which a [tcache_epsilon] below ε
    prices as the reach-extended cost model. *)

val cost : epsilon:float -> counters -> float
(** [Cost.price ~epsilon (ledger c)]: the paper's model, which charges
    every TLB miss ε regardless of reach extension. *)

type t

val create : ?obs:Atp_obs.Scope.t -> config -> t
(** Raises [Invalid_argument] if [huge_size] is not a power of two, or
    if fewer than one huge page fits in RAM.  [obs] registers
    [accesses]/[tlb_hits]/[tlb_misses]/[page_faults]/[ios] counters
    (mirroring {!counters}) plus the TLB's own under the sub-scope
    [tlb], and emits [io]/[eviction] trace events.  When the reach
    tier is enabled it additionally registers [tcache_hits] and the
    tier's TLB counters under [tcache]; when disabled those names are
    absent from the snapshot.

    @raise Invalid_argument unless [huge_size] is a power of two no
    larger than RAM and [tcache_entries >= 0]. *)

val config : t -> config

val access : t -> int -> unit
(** Service one virtual base-page reference.

    @raise Invalid_argument if [vpage < 0]. *)

val counters : t -> counters

val reset_counters : t -> unit
(** Zero the counters ({!counters} is a view of the registered obs
    counters, the only store) but keep
    TLB/RAM state: used to separate warmup from measurement, as the
    paper's experiments do. *)

val resident_pages : t -> int
(** Base pages currently in RAM ([h] times the resident huge units). *)

val run : ?warmup:int array -> t -> int array -> counters
(** [run ~warmup t trace] plays the warmup (counters discarded), then
    the trace, returning the measured counters. *)

val pp_counters : Format.formatter -> counters -> unit
