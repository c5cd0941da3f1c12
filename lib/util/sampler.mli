(** Random samplers over page indices.

    These back the synthetic workloads of the paper's Section 6: the
    bimodal stress test samples uniformly from two nested regions, and
    the graph-walk workload draws edge destinations from a bounded
    Pareto distribution with shape [alpha = 0.01]. *)

type t = Prng.t -> int
(** A sampler maps generator state to an index. *)

val uniform : n:int -> t
(** Uniform on [0, n).

    @raise Invalid_argument if the support is empty. *)

val bounded_pareto : alpha:float -> n:int -> t
(** Bounded Pareto on {1, …, n} mapped to [0, n): probability of rank
    [i] proportional to [(i+1)^-(alpha+1)], sampled by inverse
    transform on the continuous bounded Pareto and floored.  This is
    the paper's edge-destination distribution.

    @raise Invalid_argument if the support is empty or
    [alpha <= 0]. *)

val zipf : s:float -> n:int -> t
(** Zipf with exponent [s] on [0, n): P(i) proportional to
    [(i+1)^-s].  Uses rejection-inversion (Hörmann–Derflinger), which
    is exact and O(1) per sample for any [n].

    @raise Invalid_argument if the support is empty or [s <= 0]. *)

type discrete
(** An arbitrary finite distribution, sampled in O(1) via Walker's
    alias method. *)

val discrete : float array -> discrete
(** Build the alias table from non-negative weights (need not sum to
    one; must not all be zero).

    @raise Invalid_argument if [weights] is empty, any weight is
    negative, or all weights are zero. *)

val sample_discrete : discrete -> Prng.t -> int
