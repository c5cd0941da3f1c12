(** Shared-hardware contention: what tenants do to each other.

    The engine's tenant-partitioned replay gives every tenant private
    simulator state — that independence is what makes it shardable.
    Real consolidated hardware is the opposite: one ASID-tagged TLB
    and one RAM, global LRU across all address spaces, so a noisy
    neighbor's misses evict everyone's translations.  This module
    replays the same {!Atp_engine.Engine.tenant_source} against that
    shared machine ([Shared]), or against per-tenant reserved slices
    of it ([Reserved]) — the QoS policy comparison — with identical
    cost accounting, so the two are directly comparable.

    The access path charges the paper's translation cost: a TLB miss
    is a fill (ε each); a fill that also misses RAM is an I/O (1
    each); {!ledger} carries both.

    [Shared] mode recycles ASIDs through {!Atp_tlb.Asid.Allocator} —
    lazy, flush-on-rollover — so departures are O(1), and any stale
    translation a recycled id could surface is detected via the
    entry's owner payload and counted in {!result.leaks} (asserted
    zero by the tests, guaranteed zero by the allocator).

    The whole replay is sequential and deterministic: contention
    makes tenants interdependent, so this path cannot shard — that is
    the point of the engine's reserved-state path. *)

type qos =
  | Shared
      (** one TLB ([config.tlb_entries]) and one RAM
          ([config.ram_frames]) for everybody, global LRU *)
  | Reserved of { tlb_entries : int; ram_frames : int }
      (** private slices per tenant: full isolation *)

type config = {
  tlb_entries : int;  (** shared-mode TLB entries (>= 1) *)
  ram_frames : int;  (** shared-mode RAM frames (>= 1) *)
  asid_bits : int;  (** hardware id space, 1..20 *)
  page_bits : int;  (** bits of a page number in a RAM key, 1..40 *)
}

val default : config
(** 64-entry TLB, 1024-frame RAM, 8-bit ASIDs (so churny fleets
    actually exercise recycling), 24-bit pages. *)

val validate : config -> unit
(** @raise Invalid_argument on any out-of-range field. *)

type tenant_stats = {
  tenant : int;
  accesses : int;
  tlb_fills : int;
  ios : int;
}

val ledger : tenant_stats -> Atp_obs.Cost.t
(** IOs and TLB fills; priced, they are the tenant's translation
    cost. *)

type result = {
  stats : tenant_stats list;  (** sorted by tenant id *)
  leaks : int;  (** stale hits from a recycled asid — must be 0 *)
  rollovers : int;  (** ASID generation rollovers ([Shared] only) *)
  peak_active : int;
      (** most tenants ever simultaneously live: the O(active-tenant)
          memory witness *)
}

val run :
  ?obs:Atp_obs.Scope.t ->
  config ->
  qos ->
  Atp_engine.Engine.tenant_source ->
  result
(** Sequential replay of the event stream against the chosen machine.
    Per-tenant state is created at first sight and dropped at
    departure; tenants never departing are finalized at end of stream,
    and the stats list is stably sorted by tenant id.

    [obs] registers the additive counters [accesses]/[tlb_fills]/
    [ios]/[leaks] and the gauges [rollovers]/[peak_active].

    @raise Invalid_argument on a bad [config], a negative tenant id, a
    page outside [page_bits], or — [Shared] only — when more than
    [2^asid_bits] tenants are live at once (ASID exhaustion). *)
