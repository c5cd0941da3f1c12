(** The two kinds of benchmark run.

    The timed run drives the user-facing [atsim] binary as a child
    process, one at a time (a closed loop with one client): one
    untimed warm-up run, then timed runs until the measuring time is
    over (at least five), each after a set-up run on a 1-reference
    input, and more set-up runs to make at least fifteen.  Every run's
    output is checked against an in-process replay.

    The traced run replays the same input in process, layer by layer,
    and runs [atsim] once per command shape for the engine and sweep
    counters. *)

type ctx = {
  atsim : string;  (** the [atsim] executable *)
  dir : string;  (** inputs, outputs and spans go here *)
  deadline : float;
      (** {!Proc.now} after which no further timed run starts, even if
          fewer than five have run *)
}

type metric = {
  name : string;
  unit : string;
  value : float;
      (** the reported value: the median, except for [refs_per_s], where
          it is the fastest run *)
  median : float;
  q1 : float;
  q3 : float;
  n : int;  (** samples *)
}

type outcome = {
  metrics : metric list;
  attempted : int;  (** checked runs and replays *)
  failed : int;
  errors : string list;  (** one reason per failure *)
}

type input = {
  trace : string;  (** the workload's ATPS trace *)
  one : string;  (** its first reference alone, for [setup_s] *)
  digest : string;  (** {!Gen.generate}'s digest of [trace] *)
}

val input : ctx -> Workloads.t -> seed:int -> input
(** Generate the workload's input files in [dir]. *)

val timed : ctx -> Workloads.t -> input -> seconds:float -> outcome
(** [refs_per_s], [peak_rss_mb], [setup_s], [rel_err] and
    [fail_frac].  A failed run's time is left out of the metrics. *)

val traced : ctx -> Workloads.t -> input -> outcome
(** The per-layer metrics; writes the spans to [dir/spans.jsonl]. *)

val quartiles : float list -> float * float
(** As Python's [statistics.quantiles(xs, n=4)] (exclusive method):
    the first and third cut points. *)
