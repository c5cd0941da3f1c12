(** The sharded streaming replay engine ([atp.engine]).

    Sequential replay ({!Atp_core.Simulation.run}) walks a
    fully-materialized trace on one core; production-scale traces
    (billions of references) fit neither RAM nor patience.  This
    engine pulls references from a block {!source} (an array, a
    workload or a packed ATPS file, filled a block at a time),
    time-slices them into epochs of [epoch_len] references, replays
    each epoch on a fresh simulator prefixed with the [warmup]
    references that precede it in the stream (counters reset after
    warm-up, exactly like {!Atp_core.Simulation.run}'s warm-up), and
    merges the per-epoch reports in stream order.  Epochs are replayed up to
    [shards] at a time on separate domains via
    {!Atp_util.Parallel.map}; on OCaml < 5 the same code runs
    sequentially with identical results, because the merge order is
    the stream order, never the scheduling order.

    Exact sequential replay is a configuration, not a separate entry
    point: [{ shards = 1; epoch_len >= n; warmup = 0 }] replays an
    [n]-reference stream as one epoch on one fresh simulator, the
    reference the differential suite compares sharded runs against.

    Peak memory is [shards * (epoch_len + warmup)] references for the
    epochs and their warm-up prefixes, plus the [warmup]-sized history
    ring they are cut from and one decode chunk — independent of the
    trace length.

    {2 Exactness and the error model}

    Epoch [e] starts at stream index [s = e * epoch_len].  Its replay
    is {e exact} — each counter equals the sequential run's increment
    over the same window — whenever [warmup >= s]: the warm-up window
    then covers the whole prefix, so the fresh simulator reaches the
    very state the sequential simulator had at index [s].  In
    particular, with [warmup >= epoch_len] every two-epoch replay is
    exact, and [warmup >= n] makes any replay exact (at quadratic
    replay cost).

    When [warmup < s] the warm-up under-approximates resident state:
    each such epoch can only {e over-count} misses of an
    LRU-style stack policy (cold state has fewer resident pages), by
    at most the policy capacity per epoch.  The measured bound — see
    EXPERIMENTS.md "Sharded replay error" — is well under
    {!documented_error_bound} relative cost error for every workload
    in the test matrix with [warmup = epoch_len]; the differential
    suite ([test/test_engine.ml]) enforces it. *)

type config = {
  shards : int;  (** epochs replayed concurrently (>= 1) *)
  epoch_len : int;  (** references per epoch (>= 1) *)
  warmup : int;
      (** references re-executed (then discarded from counts) before
          each epoch; clipped to the available prefix (>= 0) *)
}

val documented_error_bound : float
(** Relative cost error ([|sharded - sequential| / sequential]) that
    multi-epoch sharded replay stays within on the documented workload
    matrix with [warmup >= epoch_len]; measured in the [engine] bench
    experiment and asserted by the differential tests. *)

type totals = {
  accesses : int;  (** measured accesses (warm-up excluded) *)
  ios : int;
  tlb_fills : int;
  decoding_misses : int;
  failures : int;  (** paging failures inside measured windows *)
  max_bucket_load : int;  (** max across epochs *)
  epochs : int;  (** epochs replayed *)
  warmup_replayed : int;  (** warm-up references replayed, then discarded *)
}

val empty_totals : totals

val ledger : totals -> Atp_obs.Cost.t
(** IOs, TLB fills and decoding misses: the same events as
    {!Atp_core.Simulation.ledger}. *)

val add_report : totals -> Atp_core.Simulation.report -> warmup_len:int -> totals
(** Fold one epoch's report into the running totals (sum counters, max
    bucket load, count the epoch). *)

val pp_totals : Format.formatter -> totals -> unit

type source = int array -> int -> int -> int
(** A block stream of page references: [src dst pos len] fills
    [dst.(pos..pos+len-1)] with the next references and returns how
    many it wrote; short counts (including 0) only at end of stream. *)

val source_of_array : int array -> source
(** @raise Invalid_argument from the returned source on a block range
      outside its buffer. *)

val source_of_workload : Atp_workloads.Workload.t -> n:int -> source
(** The workload's next [n] references.
    @raise Invalid_argument if [n] is negative. *)

val source_of_stream : string -> source
(** Decodes a packed [.atps] trace through
    {!Atp_workloads.Trace.Stream.read_into}: no per-ref allocation.
    The file closes at end of stream.
    @raise Atp_workloads.Trace.Parse_error on a corrupt file. *)

val replay :
  ?obs:Atp_obs.Scope.t ->
  config:config ->
  make_sim:(unit -> Atp_core.Simulation.t) ->
  source ->
  totals
(** Sharded replay of the stream.  [make_sim] builds a fresh simulator
    per epoch and is called concurrently from worker domains: it must
    be deterministic and must not share mutable state across calls
    (derive any {!Atp_util.Prng.t} from a constant seed inside the
    closure, not outside).

    [obs] registers the engine counters [epochs] and
    [warmup_discarded].

    @raise Invalid_argument on a non-positive [shards]/[epoch_len] or
    a negative [warmup]. *)
