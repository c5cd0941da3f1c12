(** Belady's OPT: the offline optimal replacement policy.

    OPT evicts the resident page whose next use is farthest in the
    future, which minimizes misses for a fixed cache size.  It needs
    the whole request sequence up front, so unlike the online policies
    it is created from a trace; accesses must then follow that trace in
    order.  The Simulation Theorem (Theorem 4) explicitly allows
    offline algorithms as the IO-optimising input [Y], and this module
    is how the benchmarks instantiate that. *)

type t

val create : capacity:int -> int array -> t
(** [create ~capacity trace] precomputes next-use times in O(n).

    @raise Invalid_argument if [capacity < 1]. *)

val access : t -> int -> Policy.outcome
(** The [i]th call must request [trace.(i)]; raises [Invalid_argument]
    otherwise, and when the trace is exhausted.

    @raise Invalid_argument if the request deviates from, or runs past,
    the pre-recorded trace. *)

val misses : capacity:int -> int array -> int
(** Total misses incurred by OPT on the trace. *)

val instance : capacity:int -> int array -> Policy.instance
(** Package as a {!Policy.instance} (for the decoupling combinator). *)
