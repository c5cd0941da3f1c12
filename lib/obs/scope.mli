(** A registry plus a dotted name prefix: the handle instrumented
    components take.

    A [Machine] given the scope [v ~prefix:"machine" reg] registers
    ["machine.ios"] and hands [sub scope "tlb"] to its TLB, which
    registers ["machine.tlb.lookups"] — so one registry can hold
    several structures of the same kind without name collisions.

    [null ()] backs a component nobody is observing: a private
    throwaway registry, so instrumentation never needs an option
    check on the hot path. *)

type t

val v : ?prefix:string -> Registry.t -> t

val null : unit -> t
(** A scope over a fresh private registry with tracing disabled: the
    default when no [?obs] is passed. *)

val prefix : t -> string

val sub : t -> string -> t
(** [sub t "tlb"] extends the prefix by one dotted segment. *)

val counter : t -> string -> Counter.t

val gauge : t -> string -> Gauge.t

val histogram : t -> string -> Histogram.t

val tracer : t -> Trace.t
(** The registry's tracer.  Hot components capture it once at creation
    and call {!Trace.record} directly, skipping the registry
    indirection on every event.  (A later {!Registry.set_trace} is not
    seen by components created before it.) *)
