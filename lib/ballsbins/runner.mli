(** Drive a strategy against an adversary and measure the quantities
    Theorems 1–3 are about: the maximum load over time, and the number
    of {e failed} balls — balls inserted into a bin already holding
    [bin_capacity] non-failed balls, which is exactly the paper's
    paging-failure accounting. *)

type result = {
  ops : int;
  inserts : int;
  deletes : int;
  max_load_ever : int;       (** max over time of the max bin load *)
  max_load_final : int;
  avg_load_final : float;
  failed_balls : int;        (** with respect to [bin_capacity] *)
  peak_balls : int;
}

val run :
  ?bin_capacity:int ->
  game:Game.t ->
  strategy:Strategy.t ->
  Adversary.op Seq.t ->
  result
(** [bin_capacity] defaults to [max_int] (no failure accounting).
    The op sequence is consumed exactly once (it may carry internal
    state).  A ball keeps its failed label until deleted, per the
    paper's analysis; failed balls still occupy their bin. *)
