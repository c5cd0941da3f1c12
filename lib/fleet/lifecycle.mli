(** Stochastic tenant lifecycle: the event-stream generator of the
    fleet model.

    Consolidated machines run thousands to millions of short-lived
    address spaces against one translation stack.  This module turns a
    churn specification into a deterministic
    {!Atp_engine.Engine.tenant_source}: per tick, Bernoulli-ish
    arrivals (expected {!config.arrival_rate} per tick, capped at
    {!config.max_active} concurrently active), geometric lifetimes
    (mean {!config.mean_lifetime} ticks), and
    {!config.accesses_per_tick} references issued by weight-
    proportional draws among the active tenants.  [pinned] tenants
    arrive first, never depart, and issue with weight
    {!config.pinned_weight} — the noisy neighbors.

    Every draw comes from one {!Atp_util.Prng.t} seeded with
    {!config.seed}, and each tenant's workload is instantiated from
    the {!Atp_workloads.Mix.spec} on its own split-off generator: the
    stream is a pure function of [(config, spec)], so calling
    {!source} again replays the identical stream — exactly what the
    engine's per-shard fresh passes need. *)

type config = {
  seed : int;
  ticks : int;  (** simulation length in ticks (>= 0) *)
  arrival_rate : float;  (** expected tenant arrivals per tick (>= 0) *)
  mean_lifetime : float;  (** mean tenant lifetime in ticks (>= 1) *)
  accesses_per_tick : int;  (** fleet-wide references per tick (>= 0) *)
  max_active : int;  (** concurrent-tenant cap (>= 1) *)
  initial : int;  (** ordinary tenants present at tick 0 (>= 0) *)
  pinned : int;  (** immortal heavy tenants, ids [0..pinned-1] *)
  pinned_weight : float;  (** issue weight of a pinned tenant (> 0) *)
}

val validate : config -> unit
(** @raise Invalid_argument on any out-of-range field (see the bounds
    on {!config}). *)

val source :
  config -> spec:Atp_workloads.Mix.spec -> Atp_engine.Engine.tenant_source
(** A fresh pass over the configured event stream.  Tenant ids are
    dense from 0 in arrival order; each id arrives and departs at most
    once (tenants still active after the last tick simply never
    depart).  Live memory is O([max_active]), independent of how many
    tenants the run churns through.

    @raise Invalid_argument as {!validate}. *)
