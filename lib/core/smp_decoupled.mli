(** Huge-page decoupling on a multi-core machine.

    The paper notes its results apply to every TLB in a modern machine
    — per-core TLBs included.  This module runs one decoupling scheme
    D (one RAM, one allocator, one ψ table) under {e per-core} TLBs:
    each core's TLB-replacement policy covers huge pages independently,
    while the shared RAM-replacement policy Y drives the active set.
    One honesty adjustment for multicore: hardware TLB entries are
    {e copies}, not pointers, so the model's free ψ update only holds
    within a core.  When a residency change touches a huge page that
    {e remote} cores currently cover, those copies must be refreshed
    (an update IPI); this module counts every such notification, on
    insertions into A as well as evictions.  This is the real
    concurrency cost of decoupling, and the benchmarks compare it
    against the shootdown traffic of conventional per-core TLBs.

    Cost model ({!Atp_obs.Cost}): per-core TLB fills at ε, IOs at 1,
    decoding misses at ε, remote ψ-update notifications at the IPI
    price. *)

type report = {
  accesses : int;
  ios : int;
  tlb_fills : int;  (** summed over cores *)
  decoding_misses : int;
  psi_update_ipis : int;
      (** remote-copy refreshes: residency changes to huge pages
          covered by other cores *)
}

type t

val create :
  ?seed:int ->
  params:Params.t ->
  cores:int ->
  tlb_entries_per_core:int ->
  y:Atp_paging.Policy.instance ->
  unit ->
  t
(** Each core gets its own LRU TLB-replacement policy of the given
    size; [y] is the shared RAM policy (capacity ≤ the (1-δ)P
    budget).

    @raise Invalid_argument if [cores < 1] or [y] exceeds the
    (1-delta)P budget. *)

val cores : t -> int

val access : t -> core:int -> int -> unit
(** @raise Invalid_argument on an out-of-range core index. *)

val report : t -> report

val run_shared : ?warmup:int array -> t -> int array -> report
(** Round-robin the trace across cores. *)
