(** A split TLB: one sub-TLB per supported page size, looked up in
    parallel, the way Intel's Cascade Lake provides a 1536-entry L2 TLB
    for 4 KiB/2 MiB pages and a separate 16-entry TLB for 1 GiB pages.
    Keys given to [lookup] are base-page numbers; each level masks off
    its own number of low bits. *)

type 'a t

type level = {
  shift : int;  (** log2 of the page size in base pages: 0 for 4 KiB,
                    9 for 2 MiB, 18 for 1 GiB with a 4 KiB base *)
  entries : int;
}

val create : levels:level list -> unit -> 'a t
(** Levels must have distinct shifts.

    @raise Invalid_argument if [levels] is empty or contains duplicate
    shifts. *)

val levels : 'a t -> level list

val lookup : 'a t -> int -> ('a * int) option
(** [lookup t vpage] probes every level with [vpage lsr shift]; returns
    the payload and the shift of the level that hit.  All levels count
    the probe in their stats, as parallel hardware lookups would. *)

val insert : 'a t -> shift:int -> int -> 'a -> (int * 'a) option
(** Install a translation at the level with the given shift (key is
    [vpage lsr shift] computed internally from the base-page number).
    Raises [Invalid_argument] for an unknown shift.

    @raise Invalid_argument on a shift no level covers. *)

val invalidate_page : 'a t -> int -> unit
(** Shoot down any entry, at any level, covering the base page. *)
