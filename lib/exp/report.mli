(** Human-readable rendering of runner outcomes.

    Pretty tables project the same row [data] the JSON stream records
    (via {!Outcome} accessors), so the console report and
    [BENCH_<experiment>.json] cannot drift apart.  A failed task
    renders as a one-line [FAILED ...: exn] row in place of its cells,
    and a trailing [(k/n tasks failed: ...)] note lists the keys. *)

module Json = Atp_obs.Json

type column

val col_int : ?width:int -> ?field:string -> string -> column
(** [col_int header] renders the int member [field] (default:
    [header]) of each row's data; ["-"] when absent or not an int. *)

val col_float : ?width:int -> ?decimals:int -> ?field:string -> string -> column

val print_table :
  ?out:out_channel -> columns:column list -> Outcome.t list -> unit
(** One row per outcome under a ["task"] key column. *)

val shape_line : (string * int * int) list -> string
(** The figure sweeps' one-line trend summary over [(key, ios,
    tlb_misses)] rows, first row vs last.  Total on the empty and
    singleton sweeps quick-mode RAM filtering can produce (the
    pre-runner harness raised [Failure "hd"] there). *)
