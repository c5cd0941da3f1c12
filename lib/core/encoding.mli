(** TLB value encoding and decoding (the ψ and f of Section 3).

    A TLB value for a virtual huge page [u] packs [h_max] fields of
    [bits_per_page] bits.  Field [i] describes the [i]-th constituent
    page [v = u·h_max + i]: either the null code (page not in the
    active set, or unplaceable due to a paging failure), or a pair
    (choice, slot) from which the decoder reconstructs the physical
    frame as [h_choice(v)·B + slot].

    The decoding function [f] is fixed at creation time: it depends
    only on the geometry and the allocator's hash seeds (the scheme's
    random bits), never on mutable state — exactly the contract the
    paper requires of [f]. *)

type t

type value = Atp_util.Packed_array.t
(** A ψ(u): [h_max] packed fields.  Mutated in place as constituent
    pages come and go, which costs nothing in the model. *)

val create : Alloc.t -> t

val h_max : t -> int

val bits_used : t -> int
(** [h_max × bits_per_page]; always [<= w]. *)

val huge_of : t -> int -> int
(** [r(v) = v / h_max], the covering huge page. *)

val empty_value : t -> value
(** A ψ with every field null. *)

val set_code : t -> value -> int -> int -> unit
(** [set_code t value v code] writes the field for page [v] directly
    from a packed {!Alloc} code ([{!Alloc.insert_code}]'s return):
    the code itself when placed ([>= 0]), null otherwise.
    Allocation-free — the hot insert path uses this instead of
    {!refresh_page}'s allocator lookup. *)

val refresh_page : t -> value -> int -> unit
(** Re-encode the field for page [v] from the allocator's current
    location: (choice, slot) if placed, null if absent or in fallback
    (paging failure ⇒ no encoding ⇒ decoding misses, per Theorem 4). *)

val clear_page : t -> value -> int -> unit
(** Set the field for page [v] to null. *)

val is_empty : t -> value -> bool
(** All fields null. *)

val decode : t -> int -> value -> int
(** [decode t v psi] is the paper's [f(v, ψ(u))]: the physical frame
    of [v], or [-1].  Pure with respect to allocator state: it reads
    only hash seeds and the packed fields. *)
