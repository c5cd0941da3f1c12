(** Z(X, Y, D) replayed one layer at a time.

    X and Y are oblivious to D, so each 64 Ki-reference chunk can be
    run through X (on [r(p_i)]) and then Y (on [p_i]) with their
    outcomes recorded, and D driven afterwards, access by access, from
    those outcomes.  The result equals {!Atp_core.Simulation} on the
    same trace, and each layer's time can be measured on its own. *)

type config = {
  p : int;  (** physical frames *)
  w : int;  (** bits per TLB value *)
  scheme : Atp_core.Params.scheme;
  tlb : int;  (** X's capacity ℓ *)
  x_policy : string;
  y_policy : string;
  seed : int;  (** [atsim --seed] *)
}

val simulation : ?obs:Atp_obs.Scope.t -> config -> Atp_core.Simulation.t
(** A fresh simulator built as [atsim decoupled] builds it. *)

type result = {
  report : Atp_core.Simulation.report;
  x_hits : int;
  y_hits : int;
}

val replay : ?spans:Spans.t -> config -> string -> result
(** Replay a packed trace layer by layer, recording under one [run]
    span, per chunk (request id = chunk index), a [chunk] span with
    children [workloads.decode], [paging.x], [paging.y] and
    [core.decoupled].
    @raise Failure if D reports a page as not covered after X ran. *)

val simulate :
  ?obs:Atp_obs.Scope.t -> config -> string -> Atp_core.Simulation.report * float
(** The same trace through {!Atp_core.Simulation.access}, returning the
    report and the seconds spent in [access] (decoding excluded). *)
