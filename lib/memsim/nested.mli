(** Two-dimensional (virtualized) address translation.

    In a virtual machine every guest-virtual access translates twice:
    the guest page table maps gVA→gPA, and each step of that walk —
    the guest's page-table nodes live in guest-physical memory — must
    itself be translated gPA→hPA by the host table.  On x86 this is
    the (m+1)(n+1)-1 = 24-access nested walk; the paper's introduction
    cites it as squaring the worst-case TLB-miss cost.

    This module composes two {!Page_table}s, gives the host dimension
    its own {!Walker} (whose PWC plays the role of the nested-walk
    caches) and a host TLB for gPA→hPA, and reports the end-to-end
    walk cost so the effective ε under virtualization can be measured
    against the bare-metal ε of {!Walker}. *)

type result = {
  hframe : int option;  (** final host-physical frame, if fully mapped *)
  memory_accesses : int;  (** total accesses across both dimensions *)
  cycles : int;
}

type t

val create : unit -> t
(** Host walks use {!Walker.default_config}, and the host TLB has 64
    entries (a nested-TLB size).  Guest page-table nodes are assigned
    guest-physical homes and host-mapped automatically, as a
    hypervisor would back guest memory. *)

val guest_map : t -> gva:int -> gpa:int -> unit
(** Install a guest base-page translation. *)

val host_map : t -> gpa:int -> hpa:int -> unit
(** Back a guest-physical page with a host frame. *)

val translate : t -> int -> result
(** The full nested walk for a guest-virtual page.  Guest-physical
    pages without a host mapping are backed on demand (identity), so a
    [None] result means the {e guest} mapping is absent. *)

val average_cycles : t -> float

val epsilon : t -> io_latency_cycles:int -> float
(** @raise Invalid_argument if [io_latency_cycles <= 0]. *)
