open Atp_core
module Obs = Atp_obs
module Engine = Atp_engine.Engine

type fairness = {
  tenants : int;
  mean : float;
  p50 : float;
  p99 : float;
  max_cost : float;
  jain : float;
}

(* Nearest-rank percentile over a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let of_costs costs =
  let costs = Array.of_list costs in
  Array.sort Float.compare costs;
  let n = Array.length costs in
  if n = 0 then
    { tenants = 0; mean = 0.0; p50 = 0.0; p99 = 0.0; max_cost = 0.0; jain = 1.0 }
  else begin
    let sum = Array.fold_left ( +. ) 0.0 costs in
    let sumsq = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 costs in
    {
      tenants = n;
      mean = sum /. float_of_int n;
      p50 = percentile costs 50.0;
      p99 = percentile costs 99.0;
      max_cost = costs.(n - 1);
      jain =
        (if sumsq = 0.0 then 1.0
         else sum *. sum /. (float_of_int n *. sumsq));
    }
  end

let of_stats ~epsilon stats =
  of_costs
    (List.filter_map
       (fun (s : Contended.tenant_stats) ->
         if s.accesses = 0 then None
         else
           Some
             (Obs.Cost.price ~epsilon (Contended.ledger s)
             /. float_of_int s.accesses))
       stats)

let of_reports ~epsilon reports =
  of_costs
    (List.filter_map
       (fun { Engine.report = r; _ } ->
         if r.Simulation.accesses = 0 then None
         else
           Some
             (Simulation.cost ~epsilon r /. float_of_int r.Simulation.accesses))
       reports)

let observe obs f =
  Obs.Gauge.set_int (Obs.Scope.gauge obs "tenants_reported") f.tenants;
  Obs.Gauge.set (Obs.Scope.gauge obs "cost_mean") f.mean;
  Obs.Gauge.set (Obs.Scope.gauge obs "cost_p50") f.p50;
  Obs.Gauge.set (Obs.Scope.gauge obs "cost_p99") f.p99;
  Obs.Gauge.set (Obs.Scope.gauge obs "cost_max") f.max_cost;
  Obs.Gauge.set (Obs.Scope.gauge obs "jain") f.jain

let to_json f =
  Obs.Json.Obj
    [
      ("tenants", Obs.Json.Int f.tenants);
      ("mean", Obs.Json.Float f.mean);
      ("p50", Obs.Json.Float f.p50);
      ("p99", Obs.Json.Float f.p99);
      ("max", Obs.Json.Float f.max_cost);
      ("jain", Obs.Json.Float f.jain);
    ]

let pp ppf f =
  Format.fprintf ppf
    "tenants=%d mean=%.6f p50=%.6f p99=%.6f max=%.6f jain=%.4f" f.tenants
    f.mean f.p50 f.p99 f.max_cost f.jain
