(* The observability layer: registry/counter/gauge/histogram/trace
   units, JSON rendering, and — the load-bearing part — consistency
   between the exported obs counters and each component's own stats
   record on the same run. *)

open Atp_util
module Obs = Atp_obs
module Tlb = Atp_tlb.Tlb
module Machine = Atp_memsim.Machine
module Page_table = Atp_memsim.Page_table
module Walker = Atp_memsim.Walker
module Params = Atp_core.Params
module Simulation = Atp_core.Simulation
open Atp_paging

let check = Alcotest.check

let counter_value reg name =
  match Obs.Registry.find_counter reg name with
  | Some c -> Obs.Counter.value c
  | None -> Alcotest.failf "counter %s not registered" name

(* --- Json ----------------------------------------------------------- *)

let test_json_render () =
  let open Obs.Json in
  check Alcotest.string "obj"
    {|{"a":1,"b":[true,null],"c":"x\"y\n"}|}
    (to_string
       (Obj
          [
            ("a", Int 1);
            ("b", List [ Bool true; Null ]);
            ("c", String "x\"y\n");
          ]));
  check Alcotest.string "fractional float" "1.5" (to_string (Float 1.5));
  check Alcotest.string "integral float gets a point" "2.0"
    (to_string (Float 2.0));
  check Alcotest.string "nan is null" "null" (to_string (Float Float.nan));
  check Alcotest.string "inf is null" "null" (to_string (Float Float.infinity))

(* --- Registry ------------------------------------------------------- *)

let test_registry_interning () =
  let reg = Obs.Registry.create () in
  let a = Obs.Registry.counter reg "x" in
  let b = Obs.Registry.counter reg "x" in
  Obs.Counter.incr a;
  Obs.Counter.add b 2;
  check Alcotest.int "same counter through both handles" 3
    (Obs.Counter.value a);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "one binding" [ ("x", 3) ] (Obs.Registry.counters reg)

let test_registry_sorted_and_reset () =
  let reg = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter reg "zeta") 9;
  Obs.Counter.add (Obs.Registry.counter reg "alpha") 4;
  Obs.Gauge.set_int (Obs.Registry.gauge reg "g") 2;
  Obs.Histogram.observe (Obs.Registry.histogram reg "h") 3;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted by name"
    [ ("alpha", 4); ("zeta", 9) ]
    (Obs.Registry.counters reg);
  Obs.Registry.reset reg;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "counters zeroed"
    [ ("alpha", 0); ("zeta", 0) ]
    (Obs.Registry.counters reg);
  check (Alcotest.float 0.0) "gauge zeroed" 0.0
    (Obs.Gauge.value (Obs.Registry.gauge reg "g"));
  check Alcotest.int "histogram zeroed" 0
    (Obs.Histogram.count (Obs.Registry.histogram reg "h"))

let test_registry_snapshot_shape () =
  let reg = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter reg "b") 2;
  Obs.Counter.add (Obs.Registry.counter reg "a") 1;
  check Alcotest.string "deterministic snapshot"
    {|{"counters":{"a":1,"b":2},"gauges":{},"histograms":{},"trace":{"enabled":false,"emitted":0,"dropped":0}}|}
    (Obs.Registry.snapshot_string reg)

(* --- Scope ---------------------------------------------------------- *)

let test_scope_prefixes () =
  let reg = Obs.Registry.create () in
  let machine = Obs.Scope.v ~prefix:"machine" reg in
  let tlb = Obs.Scope.sub machine "tlb" in
  Obs.Counter.incr (Obs.Scope.counter tlb "lookups");
  Obs.Counter.incr (Obs.Scope.counter machine "ios");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "dotted names"
    [ ("machine.ios", 1); ("machine.tlb.lookups", 1) ]
    (Obs.Registry.counters reg);
  check Alcotest.string "prefix accessor" "machine.tlb" (Obs.Scope.prefix tlb)

let test_scope_null_is_isolated () =
  let s = Obs.Scope.null () in
  Obs.Counter.incr (Obs.Scope.counter s "x");
  (* No way to reach this registry from outside; just confirm it
     counts and doesn't raise. *)
  check Alcotest.int "null scope still counts" 1
    (Obs.Counter.value (Obs.Scope.counter s "x"))

(* --- Trace ---------------------------------------------------------- *)

let test_trace_ring_keeps_tail () =
  let tr = Obs.Trace.create ~capacity:4 in
  for i = 0 to 9 do
    Obs.Trace.emit tr ~detail:(i * 10) Obs.Event.Io i
  done;
  check Alcotest.int "emitted" 10 (Obs.Trace.emitted tr);
  check Alcotest.int "dropped" 6 (Obs.Trace.dropped tr);
  let events = Obs.Trace.events tr in
  check
    (Alcotest.list Alcotest.int)
    "most recent subjects, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Obs.Event.subject) events);
  check
    (Alcotest.list Alcotest.int)
    "seq preserved" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Obs.Event.seq) events)

let test_trace_disabled_is_noop () =
  let tr = Obs.Trace.disabled in
  Obs.Trace.emit tr Obs.Event.Tlb_miss 1;
  check Alcotest.bool "disabled" false (Obs.Trace.enabled tr);
  check Alcotest.int "nothing recorded" 0 (Obs.Trace.emitted tr)

let test_trace_jsonl () =
  let tr = Obs.Trace.create ~capacity:8 in
  Obs.Trace.emit tr ~detail:2 Obs.Event.Tlb_miss 7;
  Obs.Trace.emit tr Obs.Event.Decode_miss 9;
  let buf = Buffer.create 64 in
  Obs.Trace.to_jsonl buf tr;
  check Alcotest.string "jsonl lines"
    ({|{"seq":0,"kind":"tlb_miss","subject":7,"detail":2}|} ^ "\n"
   ^ {|{"seq":1,"kind":"decode_miss","subject":9,"detail":0}|} ^ "\n")
    (Buffer.contents buf)

let test_trace_rejects_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Obs.Trace.create ~capacity:0))

(* --- Histogram and Stats edge cases --------------------------------- *)

let test_histogram_empty () =
  let h = Obs.Histogram.create () in
  check Alcotest.int "count" 0 (Obs.Histogram.count h);
  check (Alcotest.float 0.0) "mean" 0.0 (Obs.Histogram.mean h);
  check Alcotest.int "percentile of empty" 0 (Obs.Histogram.percentile h 0.99);
  check Alcotest.string "min/max null when empty"
    {|{"count":0,"mean":0.0,"min":null,"max":null,"p50":0,"p99":0}|}
    (Obs.Json.to_string (Obs.Histogram.to_json h))

let test_histogram_single_sample () =
  let h = Obs.Histogram.create () in
  Obs.Histogram.observe h 5;
  check Alcotest.int "count" 1 (Obs.Histogram.count h);
  check (Alcotest.float 1e-9) "mean" 5.0 (Obs.Histogram.mean h);
  (* 5 lands in bucket [4,8): the quantile upper bound is 7. *)
  check Alcotest.int "p50 bucket ceiling" 7 (Obs.Histogram.percentile h 0.5);
  check (Alcotest.float 0.0) "variance of single" 0.0
    (Stats.Summary.variance (Obs.Histogram.summary h))

let test_histogram_rejects_negative () =
  let h = Obs.Histogram.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Log_histogram.add: negative value") (fun () ->
      Obs.Histogram.observe h (-1))

let test_summary_rejects_nan () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 1.0;
  Alcotest.check_raises "NaN" (Invalid_argument "Summary.add: NaN observation")
    (fun () -> Stats.Summary.add s Float.nan);
  check Alcotest.int "count unchanged after rejection" 1
    (Stats.Summary.count s)

let test_summary_single_sample () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 3.5;
  check Alcotest.int "count" 1 (Stats.Summary.count s);
  check (Alcotest.float 0.0) "mean" 3.5 (Stats.Summary.mean s);
  check (Alcotest.float 0.0) "variance" 0.0 (Stats.Summary.variance s);
  check (Alcotest.float 0.0) "min" 3.5 (Stats.Summary.min s);
  check (Alcotest.float 0.0) "max" 3.5 (Stats.Summary.max s)

let test_log_histogram_empty_percentile_raises () =
  let h = Stats.Log_histogram.create () in
  Alcotest.check_raises "empty"
    (Invalid_argument "Log_histogram.percentile: empty") (fun () ->
      ignore (Stats.Log_histogram.percentile h 0.5))

(* --- Component consistency: obs counters == stats records ------------ *)

let test_tlb_obs_matches_stats () =
  let reg = Obs.Registry.create () in
  let tlb =
    Tlb.create ~obs:(Obs.Scope.v ~prefix:"tlb" reg) ~entries:16 ()
  in
  let rng = Prng.create ~seed:3 () in
  for _ = 1 to 2_000 do
    let key = Prng.int rng 64 in
    match Tlb.lookup tlb key with
    | Some _ -> ()
    | None -> ignore (Tlb.insert tlb key key)
  done;
  let s = Tlb.stats tlb in
  check Alcotest.int "lookups" s.Tlb.lookups (counter_value reg "tlb.lookups");
  check Alcotest.int "hits" s.Tlb.hits (counter_value reg "tlb.hits");
  check Alcotest.int "misses" s.Tlb.misses (counter_value reg "tlb.misses");
  check Alcotest.int "insertions" s.Tlb.insertions
    (counter_value reg "tlb.insertions");
  check Alcotest.int "evictions" s.Tlb.evictions
    (counter_value reg "tlb.evictions");
  Tlb.reset_stats tlb;
  check Alcotest.int "reset_stats also zeroes obs" 0
    (counter_value reg "tlb.lookups")

let test_machine_obs_matches_counters () =
  let reg = Obs.Registry.create ~trace:(Obs.Trace.create ~capacity:1024) () in
  let m =
    Machine.create
      ~obs:(Obs.Scope.v ~prefix:"machine" reg)
      { Machine.default_config with
        ram_pages = 1 lsl 10; tlb_entries = 32; huge_size = 4 }
  in
  let rng = Prng.create ~seed:5 () in
  let warmup = Array.init 3_000 (fun _ -> Prng.int rng (1 lsl 13)) in
  let trace = Array.init 3_000 (fun _ -> Prng.int rng (1 lsl 13)) in
  let c = Machine.run ~warmup m trace in
  check Alcotest.int "accesses" c.Machine.accesses
    (counter_value reg "machine.accesses");
  check Alcotest.int "tlb_hits" c.Machine.tlb_hits
    (counter_value reg "machine.tlb_hits");
  check Alcotest.int "tlb_misses" c.Machine.tlb_misses
    (counter_value reg "machine.tlb_misses");
  check Alcotest.int "page_faults" c.Machine.page_faults
    (counter_value reg "machine.page_faults");
  check Alcotest.int "ios" c.Machine.ios (counter_value reg "machine.ios");
  (* The machine's TLB counters are the same events, one layer down;
     run resets both views at the warmup boundary. *)
  check Alcotest.int "machine.tlb.misses mirrors tlb_misses"
    c.Machine.tlb_misses
    (counter_value reg "machine.tlb.misses");
  check Alcotest.bool "trace recorded io events" true
    (List.exists
       (fun e -> e.Obs.Event.kind = Obs.Event.Io)
       (Obs.Trace.events (Obs.Registry.trace reg)))

let test_simulation_obs_matches_report () =
  let reg = Obs.Registry.create () in
  let params = Params.derive ~p:(1 lsl 12) ~w:64 () in
  let x = Policy.instantiate (module Lru) ~capacity:64 () in
  let y =
    Policy.instantiate (module Lru) ~capacity:(Params.usable_pages params) ()
  in
  let z =
    Simulation.create ~seed:11
      ~obs:(Obs.Scope.v ~prefix:"sim" reg)
      ~params ~x ~y ()
  in
  let rng = Prng.create ~seed:13 () in
  let warmup = Array.init 2_000 (fun _ -> Prng.int rng (1 lsl 14)) in
  let trace = Array.init 2_000 (fun _ -> Prng.int rng (1 lsl 14)) in
  let r = Simulation.run ~warmup z trace in
  check Alcotest.int "accesses" r.Simulation.accesses
    (counter_value reg "sim.accesses");
  check Alcotest.int "ios" r.Simulation.ios (counter_value reg "sim.ios");
  check Alcotest.int "tlb_fills" r.Simulation.tlb_fills
    (counter_value reg "sim.tlb_fills");
  check Alcotest.int "decoding_misses" r.Simulation.decoding_misses
    (counter_value reg "sim.decoding_misses");
  check (Alcotest.float 0.0) "max_bucket_load gauge"
    (float_of_int r.Simulation.max_bucket_load)
    (Obs.Gauge.value (Obs.Registry.gauge reg "sim.max_bucket_load"))

let test_walker_obs_matches_stats () =
  let reg = Obs.Registry.create () in
  let pt = Page_table.create () in
  let w = Walker.create ~obs:(Obs.Scope.v ~prefix:"walker" reg) pt in
  let rng = Prng.create ~seed:17 () in
  for _ = 1 to 500 do
    let v = Prng.int rng (1 lsl 16) in
    if Page_table.lookup pt v = None then Page_table.map pt ~vpage:v ~frame:v ();
    ignore (Walker.translate w v)
  done;
  let s = Walker.stats w in
  check Alcotest.int "walks" s.Walker.walks (counter_value reg "walker.walks");
  check Alcotest.int "pwc_hits" s.Walker.pwc_hits
    (counter_value reg "walker.pwc_hits");
  check Alcotest.int "memory_accesses" s.Walker.total_memory_accesses
    (counter_value reg "walker.memory_accesses");
  check Alcotest.int "cycle histogram count" s.Walker.walks
    (Obs.Histogram.count (Obs.Registry.histogram reg "walker.walk_cycles"))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [ Alcotest.test_case "render" `Quick test_json_render ] );
      ( "registry",
        [
          Alcotest.test_case "interning" `Quick test_registry_interning;
          Alcotest.test_case "sorted + reset" `Quick
            test_registry_sorted_and_reset;
          Alcotest.test_case "snapshot shape" `Quick
            test_registry_snapshot_shape;
        ] );
      ( "scope",
        [
          Alcotest.test_case "prefixes" `Quick test_scope_prefixes;
          Alcotest.test_case "null scope" `Quick test_scope_null_is_isolated;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring keeps tail" `Quick test_trace_ring_keeps_tail;
          Alcotest.test_case "disabled no-op" `Quick test_trace_disabled_is_noop;
          Alcotest.test_case "jsonl" `Quick test_trace_jsonl;
          Alcotest.test_case "bad capacity" `Quick
            test_trace_rejects_bad_capacity;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "single sample" `Quick test_histogram_single_sample;
          Alcotest.test_case "negative rejected" `Quick
            test_histogram_rejects_negative;
          Alcotest.test_case "summary NaN rejected" `Quick
            test_summary_rejects_nan;
          Alcotest.test_case "summary single sample" `Quick
            test_summary_single_sample;
          Alcotest.test_case "empty percentile raises" `Quick
            test_log_histogram_empty_percentile_raises;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "tlb" `Quick test_tlb_obs_matches_stats;
          Alcotest.test_case "machine" `Quick test_machine_obs_matches_counters;
          Alcotest.test_case "simulation" `Quick
            test_simulation_obs_matches_report;
          Alcotest.test_case "walker" `Quick test_walker_obs_matches_stats;
        ] );
    ]
