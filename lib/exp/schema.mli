(** The [BENCH_<experiment>.json] row-stream schema, version
    [atp.bench/1]: construction (used by {!Runner}) and validation
    (used by [tools/bench_validate] and CI).

    A stream is newline-delimited JSON.  Line 1 is the meta line:

    {v
    {"schema":"atp.bench/1","kind":"meta","experiment":NAME,
     "params":{...},"tasks":N}
    v}

    followed by exactly [N] rows, one per task, in spec order:

    {v
    {"schema":"atp.bench/1","kind":"row","experiment":NAME,"task":KEY,
     "status":"ok","attempts":A,"wall_s":S,"data":{...},"obs":{...}}
    {"schema":"atp.bench/1","kind":"row","experiment":NAME,"task":KEY,
     "status":"error","attempts":A,"wall_s":S,
     "error":{"exn":TEXT,"backtrace":TEXT}}
    v}

    [data] is the task's own measurement object, [obs] the snapshot of
    its private metric registry.  The full field-by-field contract is
    documented in EXPERIMENTS.md. *)

module Json = Atp_obs.Json

val meta_line :
  experiment:string -> params:(string * Json.t) list -> tasks:int -> Json.t

val ok_row :
  experiment:string ->
  task:string ->
  attempts:int ->
  wall_s:float ->
  data:Json.t ->
  obs:Json.t ->
  Json.t

val error_row :
  experiment:string ->
  task:string ->
  attempts:int ->
  wall_s:float ->
  exn_text:string ->
  backtrace:string ->
  Json.t

val is_row : Json.t -> bool
(** Does the value declare itself a row of this schema version? *)

val task_of_row : Json.t -> string option
(** The row's task key, when {!is_row}. *)

val status_of_row : Json.t -> string option

val data_of_row : Json.t -> Json.t option

val error_of_row : Json.t -> (string * string) option
(** [(exn, backtrace)] of an error row. *)

val validate_lines : string list -> (int, string) result
(** Validate a whole stream (meta line first, blank lines already
    dropped); [Ok n] is the number of rows.  Checks schema/kind
    discipline, per-row field shapes, task-key uniqueness, and that
    the row count matches the meta line's [tasks]. *)

val validate_file : string -> (int, string) result
(** {!validate_lines} on a file's non-empty lines; I/O errors are
    returned as [Error]. *)
