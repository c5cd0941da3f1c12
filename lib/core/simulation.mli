(** The Simulation Theorem (Theorem 4) made executable.

    Given a TLB-optimising algorithm X (any {!Atp_paging.Policy}
    instance run on the huge-page request stream [r(p_i)] with ℓ
    entries — Lemma 1's reduction) and an IO-optimising algorithm Y
    (any policy instance on the page stream with capacity at most
    [(1-δ)·P]), this module builds the combined memory-management
    algorithm Z over a decoupling scheme D and accounts its cost in
    the address-translation cost model.

    Invariants maintained (and checked in tests):
    - Z adds a TLB entry exactly when X misses, so
      [tlb_fills = misses(X, r(σ))];
    - Z performs an IO exactly when Y misses, so
      [ios = misses(Y, σ)];
    - decoding misses happen only for pages parked by a paging
      failure, the [n/poly(P)] term of Eq. (3). *)

type report = {
  accesses : int;
  ios : int;  (** = Y's misses *)
  tlb_fills : int;  (** = X's misses *)
  decoding_misses : int;  (** accesses that decoded to ⊥ (failures) *)
  failures_total : int;  (** paging failures since creation *)
  max_bucket_load : int;
}

val ledger : report -> Atp_obs.Cost.t
(** IOs, TLB fills and decoding misses: the events C(Z, σ) charges. *)

val cost : epsilon:float -> report -> float
(** [Cost.price ~epsilon (ledger r)] = [ios + ε·(tlb_fills +
    decoding_misses)]: C(Z, σ). *)

val c_tlb : epsilon:float -> report -> float
(** [ε·tlb_fills]: C_TLB(X, σ). *)

val c_io : report -> float
(** [ios]: C_IO(Y, σ). *)

type t

val create :
  ?seed:int ->
  ?obs:Atp_obs.Scope.t ->
  params:Params.t ->
  x:Atp_paging.Policy.instance ->
  y:Atp_paging.Policy.instance ->
  unit ->
  t
(** [x]'s capacity is the TLB entry count ℓ; [y]'s capacity must not
    exceed [Params.usable_pages params] (raises [Invalid_argument]
    otherwise — that is the resource-augmentation contract).

    [obs] registers [accesses]/[ios]/[tlb_fills]/[decoding_misses]/
    [psi_updates] counters and a [max_bucket_load] gauge (mirroring
    {!report}), and emits [tlb_hit]/[tlb_miss]/[io]/[decode_miss]/
    [eviction]/[psi_update] trace events.

    @raise Invalid_argument if [y]'s capacity exceeds the (1-delta)P
    budget. *)

val decoupled : t -> Decoupled.t

val access : t -> int -> unit
(** Service one virtual page request through Z.  X and Y step through
    their {!Atp_paging.Policy.S.access_fast}, so no outcome block is
    allocated per request. *)

val report : t -> report

val reset_report : t -> unit

val run : ?warmup:int array -> t -> int array -> report

val huge_trace : h_max:int -> int array -> int array
(** [r(p_1), r(p_2), …]: the huge-page request stream Lemma 1 feeds to
    X — also what callers need to build an OPT instance for X. *)

val pp_report : Format.formatter -> report -> unit
