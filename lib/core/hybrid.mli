(** The hybrid scheme sketched in Section 8: combine huge-page
    decoupling with {e moderately sized} physical huge pages.

    If the coverage one wants is [q = chunk · h_max] base pages per TLB
    entry but [w] only affords [h_max] decoded fields, let each field
    point at a physically contiguous {e chunk} of [chunk] base pages:
    the TLB entry then covers [q] pages while IO amplification drops
    from [q] (pure physical huge pages) to [chunk].

    Implementation: the decoupled machinery runs at chunk granularity —
    pages are grouped into chunks, the allocator places chunks into
    buckets, and each IO moves one chunk ([chunk] base-page IOs). *)

type report = {
  accesses : int;
  ios : int;  (** base-page IOs: [chunk] per chunk fault *)
  chunk_faults : int;
  tlb_fills : int;
  decoding_misses : int;
  coverage : int;  (** base pages covered per TLB entry: [chunk · h_max] *)
}

val ledger : report -> Atp_obs.Cost.t

type t

val create :
  ?seed:int ->
  ram_pages:int ->
  chunk:int ->
  w:int ->
  tlb_entries:int ->
  unit ->
  t
(** [chunk] must be a power of two.  X and Y are LRU internally: the
    TLB-replacement policy runs on coverage-sized super-pages, the
    RAM-replacement policy on chunks with the (1-δ) budget of the
    derived parameters.

    @raise Invalid_argument unless the chunk is a power of two spanning
    at least two frames. *)

val access : t -> int -> unit

val report : t -> report

val reset_report : t -> unit

val run : ?warmup:int array -> t -> int array -> report
