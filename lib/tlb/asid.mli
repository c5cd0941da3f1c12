(** An ASID-tagged TLB shared by multiple address spaces.

    The paper observes that TLBs increasingly hold entries for several
    threads and even several applications at once, shrinking each
    one's effective share.  This model tags every entry with an
    address-space id, so context switches need no flush; the
    alternative — an untagged TLB flushed on every switch — can be
    simulated with {!flush_all} to measure what ASIDs buy.

    Replacement is global LRU across all address spaces, as in real
    shared TLBs: a noisy neighbor really does evict your
    translations. *)

type 'a t

val create : ?asid_bits:int -> entries:int -> unit -> 'a t
(** [asid_bits] (default 12, as on x86) bounds the id space.

    @raise Invalid_argument unless [asid_bits] is in 1..20. *)

val max_asid : 'a t -> int

val lookup : 'a t -> asid:int -> int -> 'a option

val insert : 'a t -> asid:int -> int -> 'a -> (int * int * 'a) option
(** Returns the evicted (asid, vpage, payload), possibly belonging to
    a different address space. *)

val invalidate : 'a t -> asid:int -> int -> bool

val flush_asid : 'a t -> int -> int
(** Drop every entry of one address space (e.g. on process exit);
    returns how many were dropped.

    @raise Invalid_argument on an out-of-range asid. *)

val flush_all : 'a t -> unit
(** What a switch costs without ASIDs. *)

val stats : 'a t -> Tlb.stats

val per_asid_share : 'a t -> (int * int) list
(** Current entry count per address space: the effective-TLB-share
    measurement, sorted by asid. *)

(** Lazy ASID recycling for fleets of short-lived address spaces.

    Millions of tenants churn through a few thousand hardware ids, so
    ids must be recycled — and a recycled id must never surface a dead
    tenant's translations.  Flushing per free is O(TLB) on every exit;
    instead (as in Linux's ASID allocator) a freed id becomes
    allocatable only after a {e generation rollover}: when no fresh or
    laundered id remains, one {!flush_all} clears the TLB and makes
    every freed id clean at once.  The qcheck suite proves the no-leak
    guarantee differentially against a flush-everything reference. *)
module Allocator : sig
  type 'a alloc

  val create : 'a t -> 'a alloc
  (** Allocates out of (and flushes, on rollover) the given tagged
      TLB.  The caller must route every insert/lookup through asids
      handed out here. *)

  val allocate : 'a alloc -> int
  (** A fresh or safely recycled asid.  May trigger a generation
      rollover, which flushes the underlying TLB.

      @raise Invalid_argument when every asid is live. *)

  val free : 'a alloc -> int -> unit
  (** Return an asid (e.g. on tenant exit).  No flush happens now; the
      id is quarantined until the next rollover.

      @raise Invalid_argument on an out-of-range asid. *)

  val capacity : 'a alloc -> int
  (** [max_asid + 1] of the underlying TLB. *)

  val live : 'a alloc -> int

  val generation : 'a alloc -> int
  (** Rollovers so far. *)
end
