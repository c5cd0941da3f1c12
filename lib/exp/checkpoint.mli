(** Task-completion checkpoints: the durability layer under
    {!Runner}.

    A checkpoint file is a [BENCH] row stream without the meta line —
    one schema row (see {!Schema}) per {e completed} task, appended
    and flushed the moment the task finishes, in completion order
    (which under domain parallelism is not spec order).  Because rows
    are stored as the exact bytes later emitted into
    [BENCH_<experiment>.json], a resumed run reproduces the
    uninterrupted run's output byte for byte.

    Failed tasks are never checkpointed: resume means "skip what is
    done, retry everything else", including failures. *)

val load : string -> (string * string) list
(** [load path] is [(task_key, raw_row_line)] for every well-formed
    row in the file, in file order; [[]] when the file does not exist.
    Malformed lines — e.g. the torn last line of a killed run — are
    skipped, so their tasks re-run. *)

type t
(** An open checkpoint being appended to.  [append] is serialized by
    an internal mutex, so worker domains can call it directly. *)

val ensure_parent_dir : string -> unit
(** Create [path]'s parent directories as needed (shared with
    {!Runner}'s stream writer). *)

val create : append:bool -> string -> t
(** Open [path] for appending ([append:true], resuming) or truncated
    ([append:false], a fresh run).  Parent directories are created.
    When resuming over a torn last line, a newline ends it first, so
    the next row starts a line of its own and the torn line alone is
    skipped by {!load}.
    @raise Sys_error if the file cannot be opened. *)

val append : t -> string -> unit
(** Append one row line and flush: the row is on disk before the task
    counts as finished. *)

val close : t -> unit

val remove : string -> unit
(** Delete a checkpoint (after a fully successful run). *)
