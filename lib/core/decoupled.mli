(** The huge-page decoupling scheme D of Section 3, assembled: the
    RAM-allocation scheme ({!Alloc}), the TLB-encoding scheme, and the
    TLB-decoding scheme ({!Encoding}), kept mutually consistent in
    O(1) time per event.

    The scheme is driven from outside by a RAM-replacement policy
    (which pages are active) and a TLB-replacement policy (which huge
    pages are covered), both oblivious to the scheme's internals —
    exactly the interface of the paper.  A hash table shadows the
    would-be ψ(u) for every huge page with a resident constituent, so
    loading a TLB entry is O(1) (the trick in the proof of
    Theorem 1). *)

type t

type translation =
  | Frame of int  (** TLB covered and the field decoded to φ(v) *)
  | Decode_fault
      (** TLB covered but f returned ⊥ — a decoding miss if the page
          is actually active (paging failure), or simply a
          non-resident page *)
  | Not_covered  (** no TLB entry for r(v): a TLB miss *)

val create : ?seed:int -> Params.t -> t

val params : t -> Params.t

val alloc : t -> Alloc.t

val h_max : t -> int

val huge_of : t -> int -> int
(** The covering huge page r(v) = v / h_max, via the scheme's
    strength-reduced divider — the hot paths' replacement for a
    hardware divide per access. *)

(** {2 RAM-replacement events} *)

val ram_insert : t -> int -> unit
(** Page [v] enters the active set A; assigns φ(v) and updates ψ of
    the covering huge page. *)

val ram_evict : t -> int -> unit
(** Page [v] leaves A; frees its frame and nulls its ψ field. *)

val active : t -> int

(** {2 TLB-replacement events} *)

val tlb_add : t -> int -> unit
(** Huge page [u] enters the TLB; ψ(u) is materialized in O(1).
    Idempotent. *)

val tlb_remove : t -> int -> unit
(** Huge page [u] leaves the TLB.  Idempotent. *)

val tlb_mem : t -> int -> bool

val tlb_size : t -> int

(** {2 Translation} *)

val translate : t -> int -> translation
(** Look up page [v] through the decoupled TLB. *)

val translate_code : t -> int -> int
(** Allocation-free [translate]: the frame φ(v) when [>= 0], else
    {!fault_code} or {!not_covered_code}.  [translate] is this
    function's boxed view. *)

val translate_covered_code : t -> int -> int -> int
(** [translate_covered_code t v u] is {!translate_code} for a page
    whose huge page [u] is already known to be TLB-covered — the
    membership probe is skipped, so [not_covered_code] is never
    returned.  {!Simulation.access} calls this right after ensuring
    coverage. *)

val fault_code : int
(** [-1]: covered but f returned ⊥ ([Decode_fault]). *)

val not_covered_code : int
(** [-2]: no TLB entry for r(v) ([Not_covered]). *)

val decoded_frame : t -> int -> int option
(** Debug/verification view: what f would return for [v] if its huge
    page were covered; bypasses TLB membership. *)
