(** An Iceberg hash table: the dictionary the paper's companion work
    ("Dynamic balls-and-bins and iceberg hashing", reference [34])
    builds from the Iceberg[d] placement rule.

    Keys live in a {e front yard} of wide bins addressed by one hash;
    a bin's overflow goes to a {e back yard} placed by Greedy[2] over
    two more hashes.  Placement is {e stable} — a key never moves until
    deleted — which is exactly the property that makes the scheme
    usable for physical page placement: the table's (bin, slot)
    coordinates are small and immutable, so they can be cached in
    TLB-value-sized encodings.

    Lookups probe at most one front bin and two back bins, all of
    bounded width, so worst-case probe cost is O(1); the [stats]
    counters expose the realized probe lengths. *)

type 'v t

type stats = {
  inserts : int;
  lookups : int;
  front_hits : int;  (** lookups resolved in the front yard *)
  back_hits : int;
  overflow_hits : int;  (** resolved in the spill area *)
  slots_probed : int;  (** total slot comparisons *)
}

val create : ?seed:int -> capacity:int -> unit -> 'v t
(** A table intended for up to [capacity] live keys; raises
    [Invalid_argument] if [capacity < 1].  The structure never
    resizes — beyond the yards, keys land in an O(1)-expected spill
    area whose occupancy {!overflow_count} exposes (it stays tiny at
    any load the theorems cover).

    @raise Invalid_argument if [capacity < 1]. *)

val length : 'v t -> int

val insert : 'v t -> int -> 'v -> unit
(** Insert or replace.  Keys must be non-negative. *)

val find : 'v t -> int -> 'v option

val mem : 'v t -> int -> bool

val remove : 'v t -> int -> bool

val overflow_count : 'v t -> int
(** Keys currently in the spill area (paging failures, in the
    allocation analogy). *)

val front_yard_fraction : 'v t -> float
(** Fraction of live keys resident in the front yard — the quantity
    Iceberg keeps near 1 so that most lookups cost a single probe. *)

val stats : 'v t -> stats

val reset_stats : 'v t -> unit
