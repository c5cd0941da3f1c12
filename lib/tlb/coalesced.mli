(** A coalesced TLB (CoLT-style: Pham et al., MICRO 2012).

    Section 7 surveys TLBs that opportunistically exploit contiguity
    smaller than a huge page: when the OS happens to map a run of
    contiguous virtual pages to contiguous physical frames, one entry
    can translate the whole run.  This model coalesces within aligned
    blocks of [max_run] pages: at fill time it probes the page table
    around the missing page and installs an entry covering the
    contiguous aligned run; a lookup landing inside a cached run is a
    hit at zero cost.

    This is the natural baseline {e between} plain 4 KiB TLBs and
    huge pages — it needs no physical-contiguity guarantee, but its
    reach degrades to 1 exactly when memory is fragmented, which is
    what the decoupled scheme avoids. *)

type t

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  fills : int;
  coalesced_pages : int;  (** total pages covered by installed entries *)
}

val create : ?max_run:int -> entries:int -> unit -> t
(** [max_run] defaults to 8 (CoLT's block size); must be a power of
    two.

    @raise Invalid_argument unless [max_run] is a power of two. *)

val lookup : t -> int -> int option
(** Translate a virtual page to a frame if a cached run covers it. *)

val fill :
  t -> lookup_pt:(int -> int option) -> vpage:int -> frame:int -> int
(** After a miss, install the translation, coalescing with whatever
    contiguous neighbors the page table reports inside the aligned
    block.  [lookup_pt] is the page-table oracle.  Returns the run
    length installed (>= 1). *)

val invalidate_page : t -> int -> bool
(** Shoot down the run covering the page, if any. *)

val stats : t -> stats
