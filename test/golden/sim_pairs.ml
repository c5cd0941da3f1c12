(* Prints Simulation.run's report, the obs snapshot and a digest of the
   last 4096 trace events for nine (X, Y) policy pairs on four traces,
   plus a warm-up case.  test/test_hotpath.ml compares the output with
   sim_pairs.expected.txt, recorded from the boxed-outcome core that the
   int-coded Simulation replaced: the single core must reproduce it byte
   for byte. *)

open Atp_util
open Atp_core
open Atp_paging
open Atp_workloads
module Obs = Atp_obs

let params = Params.derive ~p:(1 lsl 11) ~w:64 ()

let traces =
  let n = 30_000 in
  [
    ( "zipf-hot",
      Workload.generate
        (Simple.zipf ~s:1.0 ~virtual_pages:4_096 (Prng.create ~seed:31 ()))
        n );
    ( "zipf-stress",
      Workload.generate
        (Simple.zipf ~s:0.9 ~virtual_pages:(1 lsl 16) (Prng.create ~seed:32 ()))
        n );
    ( "graph-walk",
      Workload.generate
        (Graph_walk.create ~virtual_pages:8_192 (Prng.create ~seed:33 ()))
        n );
    ( "uniform",
      Workload.generate
        (Simple.uniform ~virtual_pages:2_048 (Prng.create ~seed:34 ()))
        n );
  ]

let pairs =
  [
    ("lru", "lru");
    ("lru", "fifo");
    ("fifo", "lru");
    ("fifo", "fifo");
    ("lru", "2q");
    ("2q", "lru");
    ("2q", "2q");
    ("mru", "lru");
    ("lru", "clock");
  ]

let sim ~obs ~x_name ~y_name =
  let policy name seed capacity =
    Policy.instantiate (Registry.find_exn name)
      ~rng:(Prng.create ~seed ()) ~capacity ()
  in
  Simulation.create ~obs ~seed:7 ~params ~x:(policy x_name 11 64)
    ~y:(policy y_name 13 256) ()

let print label run =
  let tr = Obs.Trace.create ~capacity:4096 in
  let reg = Obs.Registry.create ~trace:tr () in
  let r = run (Obs.Scope.v reg) in
  let events = Buffer.create 4096 in
  Obs.Trace.to_jsonl events tr;
  Format.printf "%s: %a@.%s@.events %s@." label Simulation.pp_report r
    (Obs.Registry.snapshot_string reg)
    (Digest.to_hex (Digest.string (Buffer.contents events)))

let () =
  List.iter
    (fun (x_name, y_name) ->
      List.iter
        (fun (wname, trace) ->
          print
            (Printf.sprintf "%s/%s on %s" x_name y_name wname)
            (fun obs -> Simulation.run (sim ~obs ~x_name ~y_name) trace))
        traces)
    pairs;
  let warmup = List.assoc "zipf-hot" traces in
  let trace = List.assoc "zipf-stress" traces in
  List.iter
    (fun (x_name, y_name) ->
      print
        (Printf.sprintf "%s/%s with warmup" x_name y_name)
        (fun obs -> Simulation.run ~warmup (sim ~obs ~x_name ~y_name) trace))
    [ ("lru", "lru"); ("2q", "lru"); ("mru", "lru") ]
