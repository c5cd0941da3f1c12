(** Parsers for what [atsim] prints and writes.  Each returns [Error]
    with a reason instead of raising, so a malformed output counts as
    one failed run. *)

type totals = {
  epochs : int;
  accesses : int;
  ios : int;
  tlb_fills : int;
  decoding_misses : int;
  failures : int;
  max_bucket_load : int;
  warmup_replayed : int;
}

type decoupled = {
  totals : totals;
  cost : float;  (** the printed C(Z), two decimals *)
  exact : bool;  (** atsim labelled the replay exact *)
}

val decoupled : string -> (decoupled, string) result
(** The [epochs=… ios=…] and [C(Z) = …] lines of [atsim decoupled] in
    engine mode. *)

type row = {
  h : int;
  ios : int;
  tlb_misses : int;
  cost : float;
  wall_s : float;  (** the task's own wall time *)
}

val sweep_rows : string -> (row list, string) result
(** The [atp.bench/1] stream of [atsim sweep --json]: the stream must
    pass [Atp_exp.Schema.validate_lines], and every row must have
    status [ok]. *)

val engine_counter : string -> string -> (int, string) result
(** [engine_counter metrics_json name]: a counter of an [atsim
    --metrics] snapshot. *)
