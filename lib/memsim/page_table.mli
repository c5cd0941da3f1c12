(** A hierarchical (radix) page table, x86-64 style.

    The paper's model stores address translations in an in-RAM
    dictionary called the page table; this is the concrete dictionary
    every mainstream MMU implements: a 4-level radix tree with 9 bits
    of virtual page number per level, huge-page leaves permitted at
    the two intermediate levels (the 2 MiB / 1 GiB analogues), and
    per-entry accessed/dirty bits.

    A lookup reports the number of node visits it performed, which is
    exactly the memory-reference count of a hardware page walk — the
    quantity the {!Walker} module turns into a TLB-miss cost ε. *)

type t

type flags = {
  writable : bool;
  accessed : bool;
  dirty : bool;
}

type mapping = {
  frame : int;  (** physical base frame of the mapped page *)
  level : int;  (** 0 = base page; 1, 2 = huge leaves covering [512^level]
                    base pages *)
  flags : flags;
}

val levels : int
(** 4, as on x86-64. *)

val fanout_bits : int
(** 9: each level resolves 9 bits of the virtual page number. *)

val create : unit -> t

val map :
  t -> vpage:int -> frame:int -> ?level:int -> ?writable:bool -> unit -> unit
(** Install a translation.  [level] defaults to 0 (a base page); for
    [level > 0] the virtual page and frame must be aligned to
    [512^level].  Raises [Invalid_argument] on misalignment or if the
    range overlaps an existing mapping at a different level.

    @raise Invalid_argument on a bad leaf level, a page or frame not
    aligned to that level, or a range that overlaps existing mappings. *)

val unmap : t -> vpage:int -> bool
(** Remove the translation covering [vpage] (the whole leaf, if it is
    a huge leaf).  Returns whether anything was mapped. *)

val lookup : t -> int -> mapping option
(** Translation without side effects. *)

val walk : t -> int -> mapping option * int
(** [walk t vpage] is a hardware page walk: returns the mapping (if
    any) and the number of page-table nodes visited, including the
    node where the walk terminated (a huge leaf terminates early, one
    reason large pages make walks cheaper). Sets the accessed bit. *)

val set_dirty : t -> int -> bool
(** Mark the mapping covering the page dirty (a write).  Returns
    whether it was mapped. *)

val clear_accessed : t -> int -> bool
(** Clear the accessed bit (what CLOCK's hand does); the dirty bit is
    untouched.  Returns whether the page was mapped. *)

val mapped_count : t -> int
(** Number of leaf mappings (of any level). *)

val node_count : t -> int
(** Interior nodes allocated: the table's own memory footprint. *)

val iter : (vpage:int -> mapping -> unit) -> t -> unit
(** Visit every leaf mapping, in increasing virtual order. *)
