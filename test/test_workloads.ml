open Atp_workloads
open Atp_util

let check = Alcotest.check

(* --- Bimodal ---------------------------------------------------------- *)

let test_bimodal_in_range () =
  let rng = Prng.create ~seed:1 () in
  let w = Bimodal.create ~hot_pages:64 ~virtual_pages:4096 rng in
  let trace = Workload.generate w 10_000 in
  Array.iter
    (fun p -> check Alcotest.bool "page in range" true (p >= 0 && p < 4096))
    trace

let test_bimodal_concentration () =
  let rng = Prng.create ~seed:2 () in
  let w =
    Bimodal.create ~hot_fraction:0.99 ~hot_pages:64 ~virtual_pages:65536 rng
  in
  let trace = Workload.generate w 50_000 in
  let s = Trace.summarize trace in
  (* 99% of accesses in 64 pages: the footprint stays small relative to
     the address space even after 50k accesses. *)
  check Alcotest.bool "footprint small" true (s.Trace.footprint < 1_000);
  check Alcotest.int "length" 50_000 s.Trace.length

let test_bimodal_rejects_oversized_hot () =
  let rng = Prng.create () in
  Alcotest.check_raises "hot too big"
    (Invalid_argument "Bimodal.create: hot region does not fit") (fun () ->
      ignore (Bimodal.create ~hot_pages:10 ~virtual_pages:5 rng))

(* --- Graph walk -------------------------------------------------------- *)

let test_graph_walk_in_range () =
  let rng = Prng.create ~seed:3 () in
  let w = Graph_walk.create ~virtual_pages:10_000 rng in
  let trace = Workload.generate w 20_000 in
  Array.iter
    (fun p -> check Alcotest.bool "in range" true (p >= 0 && p < 10_000))
    trace

let test_graph_walk_edges_deterministic () =
  (* Two walks with the same seed traverse the same graph and make the
     same moves. *)
  let mk () =
    let rng = Prng.create ~seed:4 () in
    Workload.generate (Graph_walk.create ~virtual_pages:5_000 rng) 2_000
  in
  check Alcotest.(array int) "identical traces" (mk ()) (mk ())

let test_graph_walk_skewed () =
  (* With alpha = 0.01 the destination distribution is heavy on low
     page ids; the walk should revisit a relatively small core. *)
  let rng = Prng.create ~seed:5 () in
  let w = Graph_walk.create ~virtual_pages:100_000 rng in
  let trace = Workload.generate w 50_000 in
  let s = Trace.summarize trace in
  check Alcotest.bool "revisits a core" true (s.Trace.footprint < 50_000)

(* --- Kronecker / graph500 ---------------------------------------------- *)

let test_kronecker_csr_valid () =
  let rng = Prng.create ~seed:6 () in
  let g = Kronecker.generate ~scale:10 ~edge_factor:8 rng in
  check Alcotest.int "vertices" 1024 g.Kronecker.vertices;
  check Alcotest.int "xadj length" 1025 (Array.length g.Kronecker.xadj);
  check Alcotest.int "stored edges = 2x generated" (2 * 8 * 1024)
    (Array.length g.Kronecker.adj);
  (* Row offsets are monotone and end at the edge count. *)
  for v = 0 to 1023 do
    check Alcotest.bool "monotone" true
      (g.Kronecker.xadj.(v) <= g.Kronecker.xadj.(v + 1))
  done;
  check Alcotest.int "offsets cover adj" (Array.length g.Kronecker.adj)
    g.Kronecker.xadj.(1024);
  Array.iter
    (fun n -> check Alcotest.bool "neighbor in range" true (n >= 0 && n < 1024))
    g.Kronecker.adj

let test_kronecker_skewed_degrees () =
  let rng = Prng.create ~seed:7 () in
  let g = Kronecker.generate ~scale:10 ~edge_factor:8 rng in
  let max_deg = ref 0 in
  for v = 0 to g.Kronecker.vertices - 1 do
    max_deg := max !max_deg (Kronecker.degree g v)
  done;
  (* R-MAT hubs: the max degree dwarfs the average (16). *)
  check Alcotest.bool "power-law hubs" true (!max_deg > 100)

let test_kronecker_symmetric () =
  let rng = Prng.create ~seed:8 () in
  let g = Kronecker.generate ~scale:6 ~edge_factor:4 rng in
  (* Every directed edge has its reverse. *)
  let count = Hashtbl.create 256 in
  let bump u v delta =
    let key = (u * g.Kronecker.vertices) + v in
    Hashtbl.replace count key (delta + Option.value (Hashtbl.find_opt count key) ~default:0)
  in
  for u = 0 to g.Kronecker.vertices - 1 do
    Array.iter (fun v -> bump u v 1) (Kronecker.out_neighbors g u)
  done;
  Hashtbl.iter
    (fun key c ->
      let u = key / g.Kronecker.vertices and v = key mod g.Kronecker.vertices in
      let reverse =
        Option.value
          (Hashtbl.find_opt count ((v * g.Kronecker.vertices) + u))
          ~default:0
      in
      check Alcotest.int "reverse multiplicity" c reverse)
    count

let test_graph500_trace_in_footprint () =
  let rng = Prng.create ~seed:9 () in
  let w, layout = Graph500.create ~scale:10 ~edge_factor:8 rng in
  check Alcotest.int "virtual pages = footprint" layout.Graph500.total_pages
    w.Workload.virtual_pages;
  let trace = Workload.generate w 30_000 in
  Array.iter
    (fun p ->
      check Alcotest.bool "page within layout" true
        (p >= 0 && p < layout.Graph500.total_pages))
    trace

let test_graph500_layout_disjoint () =
  let rng = Prng.create ~seed:10 () in
  let g = Kronecker.generate ~scale:10 ~edge_factor:8 rng in
  let l = Graph500.layout_of g in
  check Alcotest.bool "ordered regions" true
    (l.Graph500.xadj_base < l.Graph500.adj_base
     && l.Graph500.adj_base < l.Graph500.visited_base
     && l.Graph500.visited_base < l.Graph500.queue_base
     && l.Graph500.queue_base < l.Graph500.parent_base
     && l.Graph500.parent_base < l.Graph500.total_pages)

let test_graph500_touches_all_regions () =
  let rng = Prng.create ~seed:11 () in
  let w, l = Graph500.create ~scale:9 ~edge_factor:8 rng in
  let trace = Workload.generate w 50_000 in
  let touches lo hi =
    Array.exists (fun p -> p >= lo && p < hi) trace
  in
  check Alcotest.bool "xadj touched" true (touches l.Graph500.xadj_base l.Graph500.adj_base);
  check Alcotest.bool "adj touched" true (touches l.Graph500.adj_base l.Graph500.visited_base);
  check Alcotest.bool "visited touched" true
    (touches l.Graph500.visited_base l.Graph500.queue_base);
  check Alcotest.bool "queue touched" true
    (touches l.Graph500.queue_base l.Graph500.parent_base);
  check Alcotest.bool "parent touched" true
    (touches l.Graph500.parent_base l.Graph500.total_pages)

(* --- Simple workloads --------------------------------------------------- *)

let test_sequential () =
  let w = Simple.sequential ~virtual_pages:5 () in
  check Alcotest.(array int) "wraps" [| 0; 1; 2; 3; 4; 0; 1 |]
    (Workload.generate w 7)

let test_zipf_workload () =
  let rng = Prng.create ~seed:12 () in
  let w = Simple.zipf ~virtual_pages:1_000 rng in
  let trace = Workload.generate w 10_000 in
  Array.iter
    (fun p -> check Alcotest.bool "in range" true (p >= 0 && p < 1_000))
    trace

(* --- Trace IO ------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "atp_trace" ".dat" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_trace_text_roundtrip () =
  with_temp_file (fun path ->
      let trace = [| 5; 0; 123456; 7; 7 |] in
      Trace.save_text path trace;
      check Alcotest.(array int) "roundtrip" trace (Trace.load_text path))

let test_trace_text_comments () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "# header\n1\n\n2\n# trailing\n3\n";
      close_out oc;
      check Alcotest.(array int) "skips comments" [| 1; 2; 3 |]
        (Trace.load_text path))

let test_trace_binary_roundtrip () =
  with_temp_file (fun path ->
      let rng = Prng.create ~seed:13 () in
      let trace = Array.init 1_000 (fun _ -> Prng.int rng 1_000_000) in
      Trace.save_binary path trace;
      check Alcotest.(array int) "roundtrip" trace (Trace.load_binary path))

let test_trace_binary_bad_magic () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "NOPE00000000";
      close_out oc;
      Alcotest.check_raises "bad magic"
        (Trace.Parse_error { path; what = "bad magic" })
        (fun () -> ignore (Trace.load_binary path)))

let test_trace_summary () =
  let s = Trace.summarize [| 3; 1; 4; 1; 5 |] in
  check Alcotest.int "length" 5 s.Trace.length;
  check Alcotest.int "footprint" 4 s.Trace.footprint;
  check Alcotest.int "min" 1 s.Trace.min_page;
  check Alcotest.int "max" 5 s.Trace.max_page

let () =
  Alcotest.run "atp.workloads"
    [
      ( "bimodal",
        [
          Alcotest.test_case "range" `Quick test_bimodal_in_range;
          Alcotest.test_case "concentration" `Quick test_bimodal_concentration;
          Alcotest.test_case "rejects oversized hot" `Quick test_bimodal_rejects_oversized_hot;
        ] );
      ( "graph_walk",
        [
          Alcotest.test_case "range" `Quick test_graph_walk_in_range;
          Alcotest.test_case "deterministic" `Quick test_graph_walk_edges_deterministic;
          Alcotest.test_case "skewed" `Quick test_graph_walk_skewed;
        ] );
      ( "kronecker",
        [
          Alcotest.test_case "csr valid" `Quick test_kronecker_csr_valid;
          Alcotest.test_case "hub degrees" `Quick test_kronecker_skewed_degrees;
          Alcotest.test_case "symmetric" `Quick test_kronecker_symmetric;
        ] );
      ( "graph500",
        [
          Alcotest.test_case "trace in footprint" `Quick test_graph500_trace_in_footprint;
          Alcotest.test_case "layout disjoint" `Quick test_graph500_layout_disjoint;
          Alcotest.test_case "touches all regions" `Quick test_graph500_touches_all_regions;
        ] );
      ( "simple",
        [
          Alcotest.test_case "sequential" `Quick test_sequential;
          Alcotest.test_case "zipf" `Quick test_zipf_workload;
        ] );
      ( "trace",
        [
          Alcotest.test_case "text roundtrip" `Quick test_trace_text_roundtrip;
          Alcotest.test_case "text comments" `Quick test_trace_text_comments;
          Alcotest.test_case "binary roundtrip" `Quick test_trace_binary_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_trace_binary_bad_magic;
          Alcotest.test_case "summary" `Quick test_trace_summary;
        ] );
    ]
