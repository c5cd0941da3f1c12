(** One task's result, as seen by the caller of {!Runner.run}.

    Whether the task ran in this process or was replayed from a
    checkpoint, the single source of truth is [row] — the schema row
    (see {!Schema}) that is (or was) emitted into the JSON stream —
    and [row_text], its exact serialized bytes.  The accessors below
    project out of the row, so pretty-printers render precisely what
    the machine-readable stream records. *)

module Json = Atp_obs.Json

type t = private {
  key : string;  (** the task key *)
  row : Json.t;  (** the full schema row *)
  row_text : string;  (** [row]'s exact bytes in the stream *)
  replayed : bool;  (** loaded from a checkpoint, not run here *)
}

val v : key:string -> row:Json.t -> row_text:string -> replayed:bool -> t
(** Used by {!Runner}; not meant for callers. *)

val ok : t -> bool

val data : t -> Json.t option
(** The task's measurement object, when [ok]. *)

val error : t -> (string * string) option
(** [(exn, backtrace)] when the task failed. *)

val attempts : t -> int

val wall_s : t -> float

val obs : t -> Json.t option
(** The task's private obs-registry snapshot, when [ok]. *)

val int_field : string -> t -> int option

val float_field : string -> t -> float option
