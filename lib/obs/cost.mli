(** The one price list of the address-translation cost model (§1): an
    IO costs 1, a TLB miss or a decoding miss costs ε, and everything
    else is free.  Two extensions price a TLB miss recovered from a
    cache-resident translation tier (Victima-style reach) and a remote
    TLB invalidation or ψ-update IPI.  Machines report a ledger of the
    events they performed; {!price} is the only code that prices one. *)

type t = {
  ios : int;  (** base-page IOs, at 1 *)
  tlb : int;  (** full-priced TLB misses (fills), at ε *)
  decode : int;  (** decoding misses, at ε *)
  cheap : int;  (** misses recovered from a translation tier, at tcache_ε *)
  ipis : int;  (** remote invalidations and ψ-update IPIs, at ε *)
}

val zero : t

val price : ?tcache_epsilon:float -> epsilon:float -> t -> float
(** [ios + ε·(tlb + decode) + tcache_ε·cheap + ε·ipis], summed in that
    order.  [tcache_epsilon] defaults to [epsilon], the paper's model.

    @raise Invalid_argument unless [0 <= tcache_epsilon <= epsilon]
    and [epsilon] is finite, so a negative, NaN or infinite [epsilon]
    fails too. *)
