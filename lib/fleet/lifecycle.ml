open Atp_util
open Atp_workloads
module Engine = Atp_engine.Engine

type config = {
  seed : int;
  ticks : int;
  arrival_rate : float;
  mean_lifetime : float;
  accesses_per_tick : int;
  max_active : int;
  initial : int;
  pinned : int;
  pinned_weight : float;
}

let validate cfg =
  if cfg.ticks < 0 then invalid_arg "Lifecycle: negative ticks";
  if cfg.arrival_rate < 0.0 then invalid_arg "Lifecycle: negative arrival_rate";
  if cfg.mean_lifetime < 1.0 then
    invalid_arg "Lifecycle: mean_lifetime must be >= 1";
  if cfg.accesses_per_tick < 0 then
    invalid_arg "Lifecycle: negative accesses_per_tick";
  if cfg.max_active < 1 then invalid_arg "Lifecycle: max_active must be >= 1";
  if cfg.initial < 0 then invalid_arg "Lifecycle: negative initial";
  if cfg.pinned < 0 then invalid_arg "Lifecycle: negative pinned";
  if cfg.pinned > cfg.max_active then
    invalid_arg "Lifecycle: pinned exceeds max_active";
  if cfg.pinned_weight <= 0.0 then
    invalid_arg "Lifecycle: pinned_weight must be positive"

type tenant = {
  id : int;
  workload : Workload.t;
  weight : float;
  pinned_tenant : bool;
}

let source cfg ~spec =
  validate cfg;
  let rng = Prng.create ~seed:cfg.seed () in
  let q : Engine.tenant_event Queue.t = Queue.create () in
  (* Active tenants, arrival order.  The population is capped at
     [max_active], so every per-tick scan — and the whole generator's
     live memory — is O(max_active) however many tenants the run
     churns through. *)
  let active = ref [] in
  let n_active = ref 0 in
  let next_id = ref 0 in
  let tick = ref 0 in
  let spawn ~pinned_tenant =
    let id = !next_id in
    incr next_id;
    (* Each tenant's workload runs on its own generator split off the
       master stream: the mix spec instantiates per-component splits
       below that, so no tenant's accesses perturb another's. *)
    let workload = Mix.instantiate spec (Prng.split rng) in
    let weight = if pinned_tenant then cfg.pinned_weight else 1.0 in
    active := !active @ [ { id; workload; weight; pinned_tenant } ];
    incr n_active;
    Queue.add (Engine.Tarrive { tenant = id }) q
  in
  for _ = 1 to cfg.pinned do
    spawn ~pinned_tenant:true
  done;
  for _ = 1 to min cfg.initial (cfg.max_active - !n_active) do
    spawn ~pinned_tenant:false
  done;
  let pick () =
    let total =
      List.fold_left (fun acc t -> acc +. t.weight) 0.0 !active
    in
    let u = Prng.float rng *. total in
    let rec go acc = function
      | [] -> assert false
      | [ t ] -> t
      | t :: rest ->
        let acc = acc +. t.weight in
        if u < acc then t else go acc rest
    in
    go 0.0 !active
  in
  let step () =
    (* Arrivals: [arrival_rate] is the expected count per tick — the
       integer part always arrives, the fraction is a Bernoulli coin —
       clipped by the population cap. *)
    let whole = int_of_float cfg.arrival_rate in
    let frac = cfg.arrival_rate -. float_of_int whole in
    let arrivals = whole + (if Prng.float rng < frac then 1 else 0) in
    for _ = 1 to arrivals do
      if !n_active < cfg.max_active then spawn ~pinned_tenant:false
    done;
    (* Accesses: each reference is issued by a weight-proportional
       draw among the active tenants, so pinned heavy tenants crowd
       the stream — the noisy-neighbor knob. *)
    if !n_active > 0 then
      for _ = 1 to cfg.accesses_per_tick do
        let t = pick () in
        Queue.add
          (Engine.Taccess { tenant = t.id; page = t.workload.Workload.next () })
          q
      done;
    (* Departures: geometric lifetimes — every non-pinned tenant
       leaves with probability 1/mean_lifetime per tick.  The scan
       draws one coin per active tenant in arrival order, keeping the
       stream a pure function of the seed. *)
    let p_depart = 1.0 /. cfg.mean_lifetime in
    let stay = ref [] and gone = ref [] in
    List.iter
      (fun t ->
        if t.pinned_tenant || Prng.float rng >= p_depart then
          stay := t :: !stay
        else gone := t :: !gone)
      !active;
    active := List.rev !stay;
    n_active := List.length !active;
    List.iter
      (fun t -> Queue.add (Engine.Tdepart { tenant = t.id }) q)
      (List.rev !gone);
    incr tick
  in
  fun () ->
    let rec next () =
      match Queue.take_opt q with
      | Some e -> Some e
      | None ->
        if !tick >= cfg.ticks then None
        else begin
          step ();
          next ()
        end
    in
    next ()
