(** A transparent-huge-pages (THP) operating-system model.

    Linux-style THP is the practical face of the tradeoff this paper
    formalizes: pages fault in at base granularity, and the OS
    opportunistically {e promotes} an aligned region to a physical
    huge page once enough of it is resident — if the buddy allocator
    can produce a contiguous aligned block, which may require evicting
    in-the-way pages (compaction; the paper's fragmentation cost).
    Promoted regions are indivisible: they are evicted whole, and the
    missing constituents are fetched at promotion time (page-fault
    amplification).  Vendors of several databases recommend disabling
    THP outright; this module lets the benchmarks show why, next to
    the decoupled scheme that removes the dilemma.

    The TLB is a split TLB: one level for base pages, one for huge
    pages, as in real hardware. *)

type config = {
  ram_pages : int;
  base_tlb_entries : int;
  huge_tlb_entries : int;
  huge_size : int;  (** pages per huge page; power of two *)
  promote_fraction : float;  (** resident fraction triggering promotion *)
  max_compaction_evictions : int;
      (** eviction budget per promotion attempt before giving up *)
}

val default_config : config
(** 1 GiB RAM, 1536/16 TLB entries (Cascade-Lake-like), 512-page huge
    pages, promote at 90% residency, compaction budget 64. *)

type counters = {
  accesses : int;
  tlb_misses : int;
  ios : int;  (** base-page IOs, including promotion fills *)
  faults : int;
  promotions : int;
  promotion_fill_ios : int;  (** IOs spent completing promoted regions *)
  compaction_evictions : int;  (** resident pages evicted to make room *)
  huge_evictions : int;  (** promoted regions evicted whole *)
}

type t

val create : config -> t
(** @raise Invalid_argument unless [huge_size] is a power of two (at
    least 2) no larger than RAM and [promote_fraction] is in [0, 1]. *)

val config : t -> config

val access : t -> int -> unit
(** @raise Invalid_argument if the page is negative. *)

val counters : t -> counters

val reset_counters : t -> unit

val resident_pages : t -> int

val promoted_regions : t -> int

val run : ?warmup:int array -> t -> int array -> counters

val ledger : counters -> Atp_obs.Cost.t
(** IOs (promotion fills included) and TLB misses. *)

val pp_counters : Format.formatter -> counters -> unit
