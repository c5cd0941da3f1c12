(** Reservation-based superpages (Navarro et al., OSDI 2002).

    The other practical huge-page design Section 7 discusses: on the
    first touch of a region the OS {e reserves} a full aligned block
    of frames, so later touches land contiguously and promotion to a
    superpage is free — no copying, no compaction.  The price is
    over-allocation: a reservation holds [huge_size] frames while only
    some are populated ("reduced RAM utilization"), and under pressure
    partial reservations are {e preempted} — their unused frames
    reclaimed, their populated pages downgraded to base pages.
    Promoted superpages remain indivisible mapping units.

    Counters expose exactly the costs the paper attributes to physical
    huge pages: fill IOs, preemptions, waste (reserved-but-unused
    frames), and whole-superpage evictions. *)

type config = {
  ram_pages : int;
  base_tlb_entries : int;
  huge_tlb_entries : int;
  huge_size : int;
}

type counters = {
  accesses : int;
  tlb_misses : int;
  ios : int;
  faults : int;
  reservations : int;
  promotions : int;
  preemptions : int;
  huge_evictions : int;
}

type t

val create : config -> t
(** @raise Invalid_argument unless [huge_size] is a power of two
    (at least 2) no larger than RAM. *)

val access : t -> int -> unit
(** @raise Invalid_argument if the page is negative. *)

val counters : t -> counters

val reset_counters : t -> unit

val resident_pages : t -> int
(** Populated pages (excludes reserved-but-unused frames). *)

val reserved_unused_frames : t -> int
(** Current waste: frames held by reservations but not populated. *)

val promoted_regions : t -> int

val run : ?warmup:int array -> t -> int array -> counters

val ledger : counters -> Atp_obs.Cost.t
(** IOs and TLB misses. *)

val pp_counters : Format.formatter -> counters -> unit
