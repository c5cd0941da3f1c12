(** The benchmark's workloads and the [atsim] command lines that run
    them.  Every flag that affects the result is passed explicitly, so
    a change in a CLI default cannot move a workload. *)

type sweep = { warmup : int; accesses : int }

type command =
  | Decoupled of { shards : int; epoch : int; shard_warmup : int }
      (** [atsim decoupled --stream] through the epoch engine *)
  | Sweep of sweep  (** [atsim sweep --json]: {!sizes} huge-page sizes *)

type t = {
  name : string;
  input : Gen.kind;
  refs : int;  (** references in the generated trace *)
  command : command;
}

val all : t list

val find : string -> t option

val z : Layered.config
(** P = 65 536 frames, w = 64, Iceberg[2], ℓ = 1536, LRU/LRU,
    [--seed 42]. *)

val epsilon : float

val sizes : int list
(** The sweep's huge-page sizes: 1, 2, …, 1024. *)

val checked_sizes : int list
(** 1, 64 and 1024: the sweep rows checked against an in-process
    {!Atp_memsim.Machine.run}. *)

val args : command -> trace:string -> json:string -> string list
(** [atsim] arguments (without the program) for [command] on [trace];
    [json] receives the sweep's row stream, or [decoupled]'s obs
    snapshot ([--metrics]). *)

val setup_command : command -> command
(** The command timed on a 1-reference input for [setup_s]: the same
    flags, with a sweep reduced to one access and no warm-up. *)

val simulated_refs : t -> int
(** References the command simulates, excluding engine warm-up
    re-replays: the trace length, or every sweep size's warm-up plus
    accesses. *)

val one_epoch : t -> command
(** The exact one-epoch replay of the workload's trace. *)

val engine : t -> command
(** The 2-shard engine replay of the trace with 8 epochs and one epoch
    of warm-up ([shard2-zipf]'s command shape). *)

val sweep : sweep
(** [sweep-walk]'s sweep, also run on a prefix of the other workloads'
    traces by the traced run. *)
