(** Trace-event vocabulary for the address-translation simulators.

    Each event names the cost-model incident it records; [subject] is
    the page / huge page / bucket the event is about, and [detail] is a
    kind-specific extra (the evicted victim, the IO count of a fault,
    the ψ-update target core).  [seq] is the global emission index, so
    a truncated ring still tells you where its window sits in the
    run. *)

type kind =
  | Tlb_hit
  | Tlb_miss
  | Io
  | Decode_miss
  | Eviction
  | Psi_update
  | Page_fault
  | Custom of string

type t = { seq : int; kind : kind; subject : int; detail : int }

val to_json : t -> Json.t
(** [{"seq":…,"kind":"tlb_miss","subject":…,"detail":…}] — one JSONL
    record of the trace schema. *)
