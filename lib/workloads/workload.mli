(** The common shape of a page-reference workload.

    A workload is a stateful stream of virtual base-page numbers in
    [0, virtual_pages).  All randomness comes through the generator
    passed at construction, so a (seed, parameters) pair pins the
    whole trace. *)

type t = {
  name : string;
  virtual_pages : int;  (** V: the size of the virtual address space *)
  description : string;
  next : unit -> int;  (** produce the next page reference *)
}

val generate : t -> int -> int array
(** [generate t n] materializes the next [n] references. *)
