open Atp_util

type t = {
  mutable summary : Stats.Summary.t;
  mutable log : Stats.Log_histogram.t;
}

let create () =
  { summary = Stats.Summary.create (); log = Stats.Log_histogram.create () }

let observe t v =
  Stats.Log_histogram.add t.log v;
  Stats.Summary.add t.summary (float_of_int v)

let count t = Stats.Summary.count t.summary

let mean t = Stats.Summary.mean t.summary

let percentile t q =
  if Stats.Log_histogram.count t.log = 0 then 0
  else Stats.Log_histogram.percentile t.log q

let summary t = t.summary

let reset t =
  t.summary <- Stats.Summary.create ();
  t.log <- Stats.Log_histogram.create ()

let to_json t =
  let n = count t in
  (* Summary.min/max reject the empty case; keep the JSON shape stable
     with explicit nulls instead. *)
  let float_or_null f = if n = 0 then Json.Null else Json.Float (f t.summary) in
  Json.Obj
    [
      ("count", Json.Int n);
      ("mean", Json.Float (mean t));
      ("min", float_or_null Stats.Summary.min);
      ("max", float_or_null Stats.Summary.max);
      ("p50", Json.Int (percentile t 0.50));
      ("p99", Json.Int (percentile t 0.99));
    ]
