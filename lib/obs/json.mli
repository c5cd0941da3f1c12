(** A minimal JSON value type and serializer, just enough for metric
    snapshots and trace events.  No parser, no external dependency.

    Serialization is deterministic: callers control key order, floats
    render with [%.12g], and non-finite floats become [null] — so a
    snapshot of a seeded run is byte-stable and safe to golden-test. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse one JSON value (with optional surrounding whitespace) from
    the whole string.  Number literals without [.]/[e] parse as {!Int},
    others as {!Float} — the inverse of the serializer's convention.
    Errors (with an offset) are returned, never raised: callers such
    as checkpoint loading must survive the torn trailing line a killed
    run leaves behind. *)

(** {1 Accessors}

    Shape-checked projections, [None] on a mismatch — enough for
    consumers of metric snapshots and benchmark row streams to read
    fields without pattern-matching boilerplate. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key];
    [None] on non-objects. *)

val as_int : t -> int option

val as_float : t -> float option
(** Accepts both {!Float} and {!Int} (promoted). *)

val as_string : t -> string option
