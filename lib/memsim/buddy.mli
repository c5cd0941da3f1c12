(** A binary buddy allocator over physical page frames.

    Physical huge pages must be contiguous {e and aligned} in RAM;
    this is the allocator an OS uses to find such runs, and the place
    where fragmentation — the paper's third cost of physical huge
    pages — becomes visible: a request for order [r] can fail even
    when [2^r] frames are free, if they are not a single aligned run. *)

type t

val create : frames:int -> t
(** All frames start free.  [frames] need not be a power of two; the
    span is decomposed into maximal aligned blocks.

    @raise Invalid_argument if [frames < 1]. *)

val order_of_size : int -> int option
(** [order_of_size n] is [Some r] when [n = 2^r] frames, the order a
    block of [n] frames is allocated at, and [None] when [n] is not a
    positive power of two. *)

val frames : t -> int

val free_frames : t -> int

val used_frames : t -> int

val alloc : t -> order:int -> int option
(** [alloc t ~order] returns the base frame of a free, aligned block of
    [2^order] frames, or [None] if no such block exists (possibly due
    to fragmentation).  Splits larger blocks as needed.

    @raise Invalid_argument if [order < 0]. *)

val free : t -> base:int -> order:int -> unit
(** Return a block; coalesces with its buddy recursively.  Raises
    [Invalid_argument] if the block is not currently allocated exactly
    so.

    @raise Invalid_argument if the block is not allocated or the order
    does not match the allocation. *)

val split_allocated : t -> base:int -> order:int -> unit
(** Re-register a live order-[order] allocation as [2^order] live
    order-0 allocations (bookkeeping only; no frames move).  Lets a
    reservation-based superpage system release the unused slots of a
    block piecemeal.  Raises [Invalid_argument] if the block is not
    allocated at exactly that order.

    @raise Invalid_argument if the block is not allocated or the
    order does not match the allocation. *)

val largest_free_order : t -> int option
(** Largest order with a free block: an external-fragmentation probe. *)

val check_invariants : t -> unit
(** For tests: raises [Failure] if internal accounting is inconsistent
    (overlapping free blocks, wrong totals).

    @raise Failure on a violated invariant: overlapping blocks, a
    coverage gap, an out-of-bounds block, or a free-count mismatch. *)
