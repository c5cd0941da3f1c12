(** Ball-placement rules.

    A strategy inspects the current game state and decides which bin
    (and internal layer) an incoming ball goes to.  All strategies are
    online and stable; the adversary is oblivious to the hash seeds. *)

type placement = { bin : int; layer : int }

type t = {
  name : string;
  k : int;  (** number of hash functions consulted per ball *)
  choose : Game.t -> int -> placement;
      (** [choose game ball]: where to put [ball].  Must not mutate the
          game. *)
}

val one_choice : Atp_util.Prng.t -> bins:int -> t
(** k = 1: the ball goes to its hashed bin unconditionally.  Theorem 1's
    allocation rule. *)

val greedy : Atp_util.Prng.t -> d:int -> bins:int -> t
(** Greedy[d] (Azar et al. / Vöcking's analysis): hash to [d] candidate
    bins, take the least loaded (first on ties).

    @raise Invalid_argument if [d < 1]. *)

val left_greedy : Atp_util.Prng.t -> d:int -> bins:int -> t
(** Vöcking's Always-Go-Left: the bins are split into [d] groups, one
    candidate is hashed per group, and ties break towards the leftmost
    group — the asymmetry that improves the max load from
    [ln ln n / ln d] to [ln ln n / (d·φ_d)].  Requires [bins] divisible
    by [d].

    @raise Invalid_argument if [d < 1] or the bin count is not
    divisible by [d]. *)

val iceberg : Atp_util.Prng.t -> ?d:int -> tau:int -> bins:int -> unit -> t
(** Iceberg[d] ([d] defaults to 2), the rule of Theorem 2: a front-yard
    hash [h1] receives the ball if the bin's {e front-yard} load is
    below the cap [tau]; otherwise the ball is placed by Greedy[d] on
    the {e back-yard} loads via [h2 … h_{d+1}].  Per the paper's
    footnote, the two yards ignore each other's loads.  The game must
    have been created with [~layers:2].

    @raise Invalid_argument if [d < 1], [tau < 1], or the game does not
    have two layers. *)

val front_yard : int
(** Layer index of Iceberg's front yard (0). *)

val default_tau : m:int -> bins:int -> int
(** The front-yard cap used by our experiments:
    [ceil (1.05 * m / bins)], i.e. [(1 + o(1)) * lambda] with a 5%
    slack.

    @raise Invalid_argument if [bins < 1]. *)
