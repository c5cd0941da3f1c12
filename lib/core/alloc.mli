(** The low-associativity RAM-allocation scheme of Section 4.

    RAM is partitioned into [buckets] buckets of [B] consecutive
    frames; a page's legal homes are determined by [k] hash functions
    of its virtual address, giving associativity [k·B].  Placement
    follows the configured rule:

    - one-choice (Theorem 1): the page goes to its single hashed
      bucket;
    - Iceberg[d] (Theorems 2–3): the front-yard bucket [h1(v)] if its
      front-yard load is below the cap τ, otherwise Greedy[d] on the
      back-yard loads of [h2(v) … h_{d+1}(v)].

    When every candidate bucket is physically full the insertion is a
    {e paging failure}: the page is parked in an arbitrary free frame
    (Theorem 4's temporary residence) and carries no encodable
    location, so accesses to it decode to ⊥ until it is evicted.

    The map φ from pages to frames is an injection and is {e stable}:
    a page's frame never changes while the page is resident. *)

type location =
  | Placed of { choice : int; slot : int; frame : int }
      (** [choice] identifies the hash function; [frame =
          bin·B + slot] where [bin] is that hash of the page. *)
  | Fallback of { frame : int }  (** a paging failure's parking spot *)

type t

val create : ?seed:int -> Params.t -> t

val params : t -> Params.t

val frames : t -> int
(** Total frames managed: [buckets × B] (at most [p]). *)

val live : t -> int

val free : t -> int

val insert_code : t -> int -> int
(** The allocation-free {!insert}: places the page and returns its
    packed code — [choice * B + slot] ([>= 0]) when placed,
    [-frame - 1] on a paging failure.  {!insert} is this function's
    boxed view.

    @raise Invalid_argument if the page is already resident.
    @raise Failure if RAM is completely full. *)

val insert : t -> int -> location
(** Raises [Invalid_argument] if the page is already resident, and
    [Failure] if RAM is completely full (the caller must respect
    [Params.usable_pages]).

    @raise Invalid_argument if the page is already resident.
    @raise Failure if RAM is completely full. *)

val delete : t -> int -> unit
(** Raises [Invalid_argument] if absent.

    @raise Invalid_argument if the page is not resident. *)

val code_of : t -> int -> int
(** The resident page's packed code (as {!insert_code} returned it),
    or [min_int] for a non-resident page.  Allocation-free. *)

val location_of : t -> int -> location option

val frame_of : t -> int -> int option

val mem : t -> int -> bool

val bin_of_choice : t -> page:int -> choice:int -> int
(** The bucket the [choice]-th hash assigns to [page]; the decoder uses
    this to reconstruct frames from (choice, slot) pairs. *)

val failures_total : t -> int
(** Paging failures since creation. *)

val max_bucket_load : t -> int
(** Highest physical occupancy over buckets, for the Theorem 1/3
    experiments. *)
