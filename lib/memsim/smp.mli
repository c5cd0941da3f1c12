(** A multi-core memory system with per-core TLBs and shootdowns.

    The paper notes that multi-core machines have per-core TLBs and
    that parallelism shrinks each thread's effective TLB share.  This
    model makes both effects measurable: every core owns a private
    TLB; RAM (and its replacement policy) is shared; and unmapping a
    page — eviction from RAM — broadcasts a TLB shootdown, costing one
    inter-processor invalidation per remote core that held the
    translation (the initiator flushes its own TLB for free).

    Costs are reported in the address-translation cost model extended
    with a per-IPI cost (shootdowns are the part of translation
    maintenance the single-core model hides). *)

type config = {
  cores : int;
  ram_pages : int;
  tlb_entries_per_core : int;
  huge_size : int;  (** power of two; 1 = no huge pages *)
  tcache_entries : int;
      (** capacity of the shared (Victima-style, LLC-resident) victim
          store behind the per-core TLBs; 0 disables it (default 0) *)
}

val default_config : config
(** 4 cores, 384 entries each (1536 split 4 ways), h = 1, reach
    extension off. *)

type counters = {
  accesses : int;
  tlb_misses : int;  (** summed over cores *)
  tcache_hits : int;
      (** the subset of [tlb_misses] recovered from the shared
          cache-resident store *)
  ios : int;
  shootdown_events : int;  (** unmaps that required any invalidation *)
  ipis : int;  (** remote invalidations delivered (initiator excluded) *)
}

type t

val create : config -> t
(** @raise Invalid_argument if there are no cores, RAM is smaller than
    one huge page, [huge_size] is not a power of two, or
    [tcache_entries < 0]. *)

val access : t -> core:int -> int -> unit
(** Raises [Invalid_argument] for an out-of-range core.

    @raise Invalid_argument on an out-of-range core or a negative page. *)

val counters : t -> counters

val reset_counters : t -> unit

val ledger : counters -> Atp_obs.Cost.t
(** IOs, full-priced misses [tlb_misses − tcache_hits], the
    [tcache_hits] as [cheap] events, and the [ipis].  With the store
    disabled, {!Atp_obs.Cost.price} of it is [ios + ε·tlb_misses +
    ε·ipis]. *)

val run_shared : ?warmup:int array -> t -> int array -> counters
(** Replay a single page trace round-robin across the cores: a shared
    address space touched by all threads (maximal shootdown
    traffic). *)

val run_partitioned : ?warmup:int array -> t -> int array -> counters
(** Shard pages across cores by hash: thread-private working sets
    (minimal shootdown traffic).  Each access goes to the core that
    owns its page. *)

val pp_counters : Format.formatter -> counters -> unit
