open Atpbench
module Simulation = Atp_core.Simulation
module Stream = Atp_workloads.Trace.Stream

let here f =
  if Filename.is_relative f then Filename.concat (Sys.getcwd ()) f else f

let child ?(timeout_s = 5) args =
  Proc.run ~timeout_s ~stdout:"child.out" ~stderr:"child.err"
    (here "child.exe") args

(* --- Proc ---------------------------------------------------------- *)

let test_peak_rss () =
  let r = child [ "alloc"; "64" ] in
  Alcotest.(check string) "exit" "exit 0" (Proc.describe r);
  let mib = r.maxrss_kb / 1024 in
  if mib < 64 || mib > 64 + 48 then
    Alcotest.failf "peak RSS %d MiB for a 64 MiB child" mib;
  if r.wall_s <= 0. || r.cpu_s <= 0. then Alcotest.fail "no wall or CPU time"

let test_exit_code () =
  let r = child [ "exit"; "3" ] in
  Alcotest.(check (pair int int))
    "exit code, signal" (3, 0) (r.exit_code, r.signal)

let test_timeout () =
  let r = child ~timeout_s:1 [ "sleep"; "30" ] in
  Alcotest.(check string) "ended by the alarm" "timeout" (Proc.describe r);
  if r.wall_s > 10. then Alcotest.failf "waited %.1f s" r.wall_s

(* --- inputs -------------------------------------------------------- *)

let workload name = Option.get (Workloads.find name)

let generate kind ~seed ~n =
  let refs = ref [] in
  let d = Gen.generate kind ~seed ~n (fun p -> refs := p :: !refs) in
  (Array.of_list (List.rev !refs), d)

(* Pinned so that a change to the generators or to the sizes shows up
   as a change of the benchmark's inputs. *)
let test_digests () =
  List.iter
    (fun (name, digest) ->
      let w = workload name in
      Alcotest.(check string)
        name digest
        (Gen.generate w.input ~seed:1 ~n:w.refs ignore))
    [
      ("stream-zipf", "7b99d9e3b5fdd230");
      ("stream-bimodal", "81ea45375c5bce2f");
      ("shard2-zipf", "7b99d9e3b5fdd230");
      ("sweep-walk", "aba0fa393aae9bc6");
    ]

let test_write () =
  let kind = (workload "sweep-walk").input in
  let refs, d = generate kind ~seed:9 ~n:70_000 in
  Alcotest.(check string)
    "same digest" d
    (Gen.write kind ~seed:9 ~n:70_000 "write.atps");
  Alcotest.(check (array int))
    "file holds the references" refs
    (Stream.to_array "write.atps")

(* --- spans --------------------------------------------------------- *)

let test_self_time () =
  let span id parent start stop =
    { Spans.id; parent; req = 0; name = string_of_int id; start; stop }
  in
  (* 0 [0,10] has children [1,3] and [4,9]; 1 has a child [1.5,2]. *)
  let spans =
    [ span 0 (-1) 0. 10.; span 1 0 1. 3.; span 4 1 1.5 2.; span 2 0 4. 9. ]
  in
  Alcotest.(check (list (pair int (float 1e-12))))
    "self times"
    [ (0, 3.); (1, 1.5); (4, 0.5); (2, 5.) ]
    (List.map
       (fun ((s : Spans.span), t) -> (s.id, t))
       (Spans.self_times spans));
  Alcotest.(check (float 1e-12)) "by name" 1.5 (Spans.self_total spans "1")

(* --- layered replay ------------------------------------------------ *)

let test_layered () =
  let n = 20_000 in
  let trace, _ = generate (Gen.Zipf { pages = 4096 }) ~seed:3 ~n in
  (* 777-reference chunks leave a ragged last one *)
  Stream.pack_array ~chunk_size:777 "layered.atps" trace;
  let pp = Format.asprintf "%a" Simulation.pp_report in
  let decoding_misses =
    List.fold_left
      (fun acc (scheme, x_policy, y_policy) ->
        let c =
          { Layered.p = 200; w = 64; scheme; tlb = 16; x_policy; y_policy;
            seed = 5 }
        in
        let expected = Simulation.run (Layered.simulation c) trace in
        let got = Layered.replay c "layered.atps" in
        Alcotest.(check string)
          (x_policy ^ "/" ^ y_policy)
          (pp expected) (pp got.report);
        Alcotest.(check int) "X hits" (n - expected.tlb_fills) got.x_hits;
        Alcotest.(check int) "Y hits" (n - expected.ios) got.y_hits;
        acc + expected.decoding_misses)
      0
      [
        (Atp_core.Params.One_choice, "lru", "lru");
        (Atp_core.Params.One_choice, "fifo", "2q");
        (Atp_core.Params.Iceberg { d = 2 }, "lru", "lru");
        (Atp_core.Params.Iceberg { d = 2 }, "fifo", "2q");
      ]
  in
  (* P = 200 is small enough for Iceberg to fail a few placements, so
     the decode-fault path is compared too. *)
  if decoding_misses = 0 then Alcotest.fail "no decoding misses exercised"

(* --- the timed run against atsim ----------------------------------- *)

let ctx () =
  {
    Harness.atsim = here (Sys.getenv "ATSIM");
    dir = ".";
    deadline = Proc.now () +. 60.;
  }

let mini name refs command = { (workload name) with refs; command }

let one_epoch n =
  Workloads.Decoupled { shards = 1; epoch = n; shard_warmup = n }

let runs = 15 + 1 + 5 (* set-up, warm-up, timed *)

let metric (o : Harness.outcome) name =
  List.find (fun (m : Harness.metric) -> m.name = name) o.metrics

let test_timed_ok () =
  List.iter
    (fun (w : Workloads.t) ->
      let ctx = ctx () in
      let o = Harness.timed ctx w (Harness.input ctx w ~seed:1) ~seconds:0. in
      Alcotest.(check (list string)) (w.name ^ " errors") [] o.errors;
      Alcotest.(check int) "attempted" runs o.attempted;
      Alcotest.(check (list string))
        "metrics"
        [ "refs_per_s"; "peak_rss_mb"; "setup_s"; "rel_err"; "fail_frac" ]
        (List.map (fun (m : Harness.metric) -> m.name) o.metrics);
      let value name = (metric o name).Harness.value in
      Alcotest.(check (float 0.)) "rel_err" 0. (value "rel_err");
      Alcotest.(check (float 0.)) "fail_frac" 0. (value "fail_frac"))
    [
      mini "stream-zipf" 20_000 (one_epoch 20_000);
      (* four epochs whose warm-up covers the whole prefix: exact *)
      mini "shard2-zipf" 20_000
        (Decoupled { shards = 2; epoch = 5_000; shard_warmup = 20_000 });
      mini "sweep-walk" 3_000 (Sweep { warmup = 1_000; accesses = 2_000 });
    ]

let test_truncated () =
  let ctx = ctx () in
  let w = mini "stream-zipf" 20_000 (one_epoch 20_000) in
  let input = Harness.input ctx w ~seed:1 in
  let bytes = In_channel.with_open_bin input.trace In_channel.input_all in
  Out_channel.with_open_bin "truncated.atps" (fun oc ->
      output_string oc (String.sub bytes 0 (String.length bytes / 2)));
  let o =
    Harness.timed ctx w { input with trace = "truncated.atps" } ~seconds:0.
  in
  Alcotest.(check (pair int int))
    "attempted, failed" (runs, 6) (o.attempted, o.failed);
  Alcotest.(check (list string))
    "reasons"
    (List.init 6 (fun _ -> "atsim exit 3"))
    o.errors;
  Alcotest.(check (float 1e-12))
    "fail_frac"
    (6. /. float_of_int runs)
    (metric o "fail_frac").value

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] *)
  Alcotest.(check (pair (float 1e-12) (float 1e-12)))
    "q1, q3" (2.75, 8.25)
    (Harness.quartiles (List.init 10 (fun i -> float_of_int (i + 1))))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "benchmark"
    [
      ( "proc",
        [
          case "peak RSS of a child" test_peak_rss;
          case "exit code" test_exit_code;
          case "timeout" test_timeout;
        ] );
      ( "inputs",
        [
          case "seed-1 digests" test_digests;
          case "ATPS round trip" test_write;
        ] );
      ("spans", [ case "self time with nested children" test_self_time ]);
      ("layered", [ case "equals Simulation.run" test_layered ]);
      ( "harness",
        [
          case "mini workloads pass every check" test_timed_ok;
          case "truncated ATPS counts as failed runs" test_truncated;
          case "quartiles as Python's" test_quartiles;
        ] );
    ]
