type t = {
  counters : (string, Counter.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  mutable trace : Trace.t;
}

let create ?(trace = Trace.disabled) () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    trace;
  }

let intern table make name =
  match Hashtbl.find_opt table name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.add table name m;
    m

let counter t name = intern t.counters Counter.create name

let gauge t name = intern t.gauges Gauge.create name

let histogram t name = intern t.histograms Histogram.create name

let trace t = t.trace

let set_trace t tr = t.trace <- tr

let sorted_bindings table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t =
  List.map (fun (name, c) -> (name, Counter.value c)) (sorted_bindings t.counters)

let find_counter t name = Hashtbl.find_opt t.counters name

let reset t =
  Hashtbl.iter (fun _ c -> Counter.reset c) t.counters;
  Hashtbl.iter (fun _ g -> Gauge.reset g) t.gauges;
  Hashtbl.iter (fun _ h -> Histogram.reset h) t.histograms

let snapshot t =
  let obj_of table to_json =
    Json.Obj (List.map (fun (name, m) -> (name, to_json m)) (sorted_bindings table))
  in
  Json.Obj
    [
      ("counters", obj_of t.counters Counter.to_json);
      ("gauges", obj_of t.gauges Gauge.to_json);
      ("histograms", obj_of t.histograms Histogram.to_json);
      ( "trace",
        Json.Obj
          [
            ("enabled", Json.Bool (Trace.enabled t.trace));
            ("emitted", Json.Int (Trace.emitted t.trace));
            ("dropped", Json.Int (Trace.dropped t.trace));
          ] );
    ]

let snapshot_string t = Json.to_string (snapshot t)

let write_metrics path t =
  let oc = open_out path in
  output_string oc (snapshot_string t);
  output_char oc '\n';
  close_out oc
