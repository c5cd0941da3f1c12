(** Random samplers over page indices.

    [zipf] draws the skewed page streams of the zipf workload
    ([Simple.zipf]) and of bench's A10.  The paper's
    other synthetic workloads do not go through this module:
    [Graph_walk] draws edge destinations with its own hash-driven
    bounded-Pareto inverse CDF, and [Bimodal] samples its two regions
    uniformly with [Prng.int]. *)

type t = Prng.t -> int
(** A sampler maps generator state to an index. *)

val zipf : s:float -> n:int -> t
(** Zipf with exponent [s] on [0, n): P(i) proportional to
    [(i+1)^-s].  Uses rejection-inversion (Hörmann–Derflinger), which
    is exact and O(1) per sample for any [n].

    @raise Invalid_argument if the support is empty or [s <= 0]. *)
