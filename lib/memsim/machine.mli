(** The trace-driven TLB+RAM simulator of Section 6, on one core or
    many.

    Configuration matches the paper's experiments: a fully associative
    TLB with ℓ entries managed by LRU, RAM managed by LRU, a base page
    of 4 KiB, and a huge-page size [h ∈ {1, 2, 4, …}] in base pages.
    Each TLB entry covers [h] virtually contiguous pages that map to
    [h] physically contiguous, aligned frames; consequently each page
    fault moves [h] pages at a cost of [h] IOs (page-fault
    amplification).  Each resident huge page fills one of the
    [ram_pages / h] aligned blocks, and the RAM LRU's capacity bounds
    how many are filled.  No cost depends on which block a huge page
    occupies, so the machine tracks residency, not frame numbers: the
    RAM, every TLB and the victim store are LRU sets of huge pages.

    The paper notes that multi-core machines have per-core TLBs and
    that parallelism shrinks each thread's TLB share.  With
    [cores > 1] every core owns a private ℓ-entry TLB over the one
    shared RAM.  Evicting a page from RAM unmaps it: a TLB shootdown
    invalidates the translation on every core and in the shared victim
    store, and each remote core that held it receives one
    inter-processor interrupt (the initiating core flushes its own TLB
    for free).  One core is the paper's machine and sends no IPIs.

    Costs follow the address-translation cost model: an IO costs 1, a
    TLB miss costs ε, a TLB hit costs 0, and evictions are free.  IPIs
    are the ledger's [ipis] term, which {!Atp_obs.Cost.price} bills at
    ε each. *)

type config = {
  ram_pages : int;  (** P, in base pages *)
  tlb_entries : int;  (** ℓ, per core *)
  huge_size : int;  (** h, a power of two, in base pages *)
  epsilon : float;  (** unread: ε is an argument of {!cost} *)
  cores : int;  (** each with a private TLB; 1 is the paper's machine *)
  tcache_entries : int;
      (** capacity of the Victima-style cache-resident victim store
          behind the TLBs, shared by every core; 0 disables it (default
          0), keeping behaviour and obs output byte-identical to the
          two-level model *)
}

val default_config : config
(** One core, 1536 TLB entries, ε = 0.01, h = 1, reach extension off;
    RAM size must be set per experiment. *)

type counters = {
  accesses : int;
  tlb_hits : int;  (** summed over cores *)
  tlb_misses : int;  (** summed over cores *)
  tcache_hits : int;
      (** the subset of [tlb_misses] recovered from the cache-resident
          victim store instead of paying a full miss *)
  page_faults : int;  (** huge-unit faults *)
  ios : int;  (** base-page IOs: [huge_size] per fault *)
  shootdowns : int;
      (** RAM evictions whose translation was cached in some TLB or in
          the victim store *)
  ipis : int;  (** remote invalidations delivered (initiator excluded) *)
}

val ledger : counters -> Atp_obs.Cost.t
(** IOs, full-priced misses [tlb_misses − tcache_hits], the
    [tcache_hits] as [cheap] events, which a [tcache_epsilon] below ε
    prices as the reach-extended cost model, and the [ipis]. *)

val cost : epsilon:float -> counters -> float
(** [Cost.price ~epsilon (ledger c)]: the paper's model, which charges
    every TLB miss ε regardless of reach extension. *)

type t

val create : ?obs:Atp_obs.Scope.t -> config -> t
(** [obs] registers [accesses]/[tlb_hits]/[tlb_misses]/[page_faults]/
    [ios] counters (mirroring {!counters}) plus {!Atp_tlb.Tlb}'s
    [lookups]/[hits]/[misses]/[insertions]/[evictions] under the
    sub-scope [tlb], where every core's TLB adds into the same
    counters, and emits [tlb_hit]/[tlb_miss]/[io]/[eviction] trace
    events.  With more than one core it also registers [shootdowns]
    and [ipis].  When the reach tier is enabled it additionally
    registers [tcache_hits] and the same five counters for the store
    under [tcache] (a recovery counts as one store lookup and hit; a
    run does not reset them).  Names a configuration does not register
    are absent from the snapshot, so a one-core machine without the
    tier snapshots the two-level model's names.

    @raise Invalid_argument unless [huge_size] is a power of two no
    larger than RAM, [tlb_entries >= 1], [cores >= 1] and
    [tcache_entries >= 0]. *)

val access : t -> core:int -> int -> unit
(** Service one virtual base-page reference on [core].

    @raise Invalid_argument if [core] is not in [0, cores) or
    [vpage < 0]. *)

val counters : t -> counters

val reset_counters : t -> unit
(** Zero the counters ({!counters} is a view of the registered obs
    counters, the only store) but keep
    TLB/RAM state: used to separate warmup from measurement, as the
    paper's experiments do. *)

val resident_pages : t -> int
(** Base pages currently in RAM ([h] times the resident huge units). *)

val run : ?warmup:int array -> t -> int array -> counters
(** [run ~warmup t trace] plays the warmup (counters discarded, and
    the [tlb.*] counters zeroed with them), then the trace, returning
    the measured counters.  Reference [i] of either runs on core
    [i mod cores]: one address space touched round-robin by every core
    (maximal shootdown traffic). *)

val run_partitioned : ?warmup:int array -> t -> int array -> counters
(** {!run}, but each reference runs on the core that owns its huge
    page by hash: thread-private working sets (minimal shootdown
    traffic). *)

val pp_counters : Format.formatter -> counters -> unit
(** Prints every counter but [shootdowns] and [ipis]. *)
