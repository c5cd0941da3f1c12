(** Derived parameters of the huge-page decoupling schemes.

    Given the hardware constants — [p] physical pages, [w] bits per TLB
    value — and a choice of allocation scheme, this module computes the
    bucket geometry and the resulting huge-page size [h_max], following
    Section 4:

    - [One_choice] (Theorem 1): bucket size
      [B = Θ(log P · log log P)], so each slot pointer needs
      [Θ(log log P)] bits and [h_max = Θ(w / log log P)].
    - [Iceberg d] (Theorem 3): bucket size [B = Θ̃(log log P)], slot
      pointers need [Θ(log log log P)] bits, and
      [h_max = Θ(w / log log log P)]. *)

type scheme =
  | One_choice
  | Iceberg of { d : int }  (** uses [d + 1] hash functions *)

type t = {
  scheme : scheme;
  p : int;  (** physical pages *)
  w : int;  (** bits per TLB value *)
  bucket_size : int;  (** B, slots per bucket *)
  buckets : int;  (** n = floor (p / B) *)
  k : int;  (** hash functions consulted *)
  tau : int;  (** Iceberg front-yard cap; equals [bucket_size] for
                  one-choice *)
  bits_per_page : int;  (** ceil (log2 (k·B + 1)): choice, slot, and a
                            null encoding *)
  h_max : int;  (** floor (w / bits_per_page) *)
  delta : float;  (** implied resource augmentation: the scheme
                      guarantees failure-freedom w.h.p. only while at
                      most [(1 - delta)·p] pages are active *)
}

val derive : ?scheme:scheme -> ?delta_exponent:int -> p:int -> w:int -> unit -> t
(** [scheme] defaults to [Iceberg {d = 2}], the paper's main
    construction.

    [delta_exponent] implements the paper's footnote 5: spending
    poly(log log P) associativity buys δ = 1/poly(log log P) of our
    choice.  With [delta_exponent = c] (Iceberg only), the resource
    augmentation target becomes [1 / (log log P)^c] — a larger bucket
    size in exchange for handing the RAM-replacement policy a bigger
    budget.  Default 1 (the body-text construction).

    @raise Invalid_argument on parameters outside the paper's regime:
    [p < 2], [w < 2], [delta_exponent < 1], [d < 1], or a word too
    small to encode a page pointer or hold one bucket. *)

val usable_pages : t -> int
(** [(1 - delta) · p], the active-set budget handed to the
    RAM-replacement policy. *)

val pp : Format.formatter -> t -> unit
