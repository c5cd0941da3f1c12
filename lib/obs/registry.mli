(** The metric registry: a name-indexed store of counters, gauges, and
    histograms, plus the run's event tracer.

    Components ask for metrics by name; asking twice returns the same
    instance, so two structures sharing a scope aggregate into one
    metric.  [snapshot] renders everything (names sorted) as one JSON
    object — the single place the whole address-translation cost model
    of a run can be read from. *)

type t

val create : ?trace:Trace.t -> unit -> t
(** [trace] defaults to {!Trace.disabled}. *)

val counter : t -> string -> Counter.t

val gauge : t -> string -> Gauge.t

val histogram : t -> string -> Histogram.t

val trace : t -> Trace.t

val set_trace : t -> Trace.t -> unit

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val find_counter : t -> string -> Counter.t option

val reset : t -> unit
(** Zero every metric; the tracer is left as is. *)

val snapshot : t -> Json.t
(** [{"counters":{…},"gauges":{…},"histograms":{…},"trace":{…}}] with
    keys in sorted order — deterministic for a seeded run. *)

val snapshot_string : t -> string

val write_metrics : string -> t -> unit
(** [write_metrics path t] writes [snapshot] to a file, newline
    terminated. *)
