(** In-memory spans recorded around the calls into each layer.

    A span has a name, a request id (the chunk index in the traced
    replay), a parent, and start/stop times.  Spans stay in memory
    until {!write_jsonl}; a disabled recorder reads no clock. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  req : int;
  name : string;
  start : float;  (** seconds *)
  mutable stop : float;
}

type t

val create : enabled:bool -> t

val enter : t -> ?parent:span -> req:int -> string -> span
(** Start a span now.  On a disabled recorder this returns a shared
    dummy span and records nothing. *)

val leave : t -> span -> unit

val spans : t -> span list
(** In start order. *)

val self_times : span list -> (span * float) list
(** Each span with its self time: its duration minus the sum of its
    children's durations.  Spans are recorded on one domain, one after
    another, so children never overlap each other or their parent. *)

val self_total : span list -> string -> float
(** Summed self time of the spans with this name, in seconds. *)

val write_jsonl : string -> span list -> unit
(** One JSON object per span, times in ns from the first span. *)
