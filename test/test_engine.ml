(* The differential harness for the sharded streaming engine: sharded
   replay must reproduce exact sequential replay when the warm-up
   window covers each epoch's prefix, stay within the documented error
   bound otherwise, and the streamed trace format must round-trip
   byte-for-byte.

   The shard count is taken from ATP_SHARDS (CI runs the suite with
   ATP_SHARDS=4 on the multicore job); on OCaml 4.x the Parallel
   fallback replays the same epochs sequentially and every assertion
   here still holds, because the merge is in stream order. *)

open Atp_util
open Atp_core
open Atp_paging
open Atp_workloads
module Engine = Atp_engine.Engine

let check = Alcotest.check

let cost t = Atp_obs.Cost.price ~epsilon:0.01 (Engine.ledger t)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let shards =
  match Option.bind (Sys.getenv_opt "ATP_SHARDS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> 2

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let params = Params.derive ~p:2048 ~w:64 ()

let policies = [ "lru"; "fifo"; "2q" ]

(* Deterministic simulator factory: every Prng is created inside the
   closure from a constant seed, so concurrent calls from worker
   domains build identical simulators.  Y's capacity (256) is far
   below one epoch's worth of references, so an epoch-sized warm-up
   window can actually fill the caches — the adequacy condition the
   documented error bound is stated under. *)
let make_sim ~policy () =
  let p = Registry.find_exn policy in
  let x =
    Policy.instantiate p ~rng:(Prng.create ~seed:11 ()) ~capacity:64 ()
  in
  let y =
    Policy.instantiate p ~rng:(Prng.create ~seed:13 ()) ~capacity:256 ()
  in
  Simulation.create ~seed:7 ~params ~x ~y ()

let trace_of ~seed ~n = function
  | "simple" ->
    Workload.generate (Simple.zipf ~virtual_pages:4096 (Prng.create ~seed ())) n
  | "bimodal" ->
    Workload.generate
      (Bimodal.create ~hot_pages:64 ~virtual_pages:4096 (Prng.create ~seed ()))
      n
  | "graph_walk" ->
    Workload.generate
      (Graph_walk.create ~virtual_pages:4096 (Prng.create ~seed ()))
      n
  | w -> invalid_arg w

let workload_names = [ "simple"; "bimodal"; "graph_walk" ]

let totals_testable =
  let pp ppf (t : Engine.totals) = Engine.pp_totals ppf t in
  let eq (a : Engine.totals) (b : Engine.totals) =
    a.Engine.accesses = b.Engine.accesses
    && a.Engine.ios = b.Engine.ios
    && a.Engine.tlb_fills = b.Engine.tlb_fills
    && a.Engine.decoding_misses = b.Engine.decoding_misses
    && a.Engine.failures = b.Engine.failures
  in
  Alcotest.testable pp eq

(* Exact sequential replay is the one-epoch configuration. *)
let sequential ~policy trace =
  Engine.replay
    ~config:
      { Engine.shards = 1; epoch_len = max 1 (Array.length trace); warmup = 0 }
    ~make_sim:(make_sim ~policy)
    (Engine.source_of_array trace)

let sharded ~policy ~epoch_len ~warmup trace =
  Engine.replay
    ~config:{ Engine.shards; epoch_len; warmup }
    ~make_sim:(make_sim ~policy)
    (Engine.source_of_array trace)

(* ------------------------------------------------------------------ *)
(* Exact equivalence when warm-up covers every epoch prefix            *)
(* ------------------------------------------------------------------ *)

(* warmup >= n: every epoch's warm-up window is its whole prefix, so
   the fresh simulator reaches the sequential simulator's state and
   each counter matches exactly — for every policy and workload. *)
let test_exact_full_warmup () =
  let n = 6_000 in
  List.iter
    (fun wname ->
      let trace = trace_of ~seed:42 ~n wname in
      List.iter
        (fun policy ->
          let seq = sequential ~policy trace in
          check totals_testable
            (Printf.sprintf "%s/%s one epoch = Simulation.run" wname policy)
            (Engine.add_report Engine.empty_totals
               (Simulation.run (make_sim ~policy ()) trace)
               ~warmup_len:0)
            seq;
          let sh = sharded ~policy ~epoch_len:1_500 ~warmup:n trace in
          check totals_testable
            (Printf.sprintf "%s/%s full-warmup sharded = sequential" wname
               policy)
            seq sh;
          check (Alcotest.float 0.)
            (Printf.sprintf "%s/%s cost" wname policy)
            (cost seq) (cost sh))
        policies)
    workload_names

(* Two epochs with warmup >= epoch_len: epoch 0 has no prefix, epoch
   1's prefix is exactly epoch 0 and fits the window — exact, the
   "single epoch-boundary" case of the documented model. *)
let test_exact_single_boundary () =
  let n = 4_000 in
  let epoch_len = 2_000 in
  List.iter
    (fun wname ->
      let trace = trace_of ~seed:9 ~n wname in
      List.iter
        (fun policy ->
          let seq = sequential ~policy trace in
          let sh = sharded ~policy ~epoch_len ~warmup:epoch_len trace in
          check totals_testable
            (Printf.sprintf "%s/%s two-epoch sharded = sequential" wname policy)
            seq sh)
        policies)
    workload_names

(* A ragged final epoch (n not a multiple of epoch_len) must not drop
   or duplicate references. *)
let test_exact_ragged_tail () =
  let n = 5_321 in
  let trace = trace_of ~seed:4 ~n "simple" in
  let seq = sequential ~policy:"lru" trace in
  let sh = sharded ~policy:"lru" ~epoch_len:1_700 ~warmup:n trace in
  check totals_testable "ragged tail exact" seq sh;
  check Alcotest.int "every reference measured" n sh.Engine.accesses;
  check Alcotest.int "epoch count" 4 sh.Engine.epochs

(* ------------------------------------------------------------------ *)
(* Bounded error on multi-epoch configs                                *)
(* ------------------------------------------------------------------ *)

let rel_err a b = if b = 0. then abs_float a else abs_float (a -. b) /. b

let test_bounded_multi_epoch () =
  let n = 12_000 in
  let epoch_len = 1_500 in
  List.iter
    (fun wname ->
      let trace = trace_of ~seed:21 ~n wname in
      List.iter
        (fun policy ->
          let seq = sequential ~policy trace in
          let sh = sharded ~policy ~epoch_len ~warmup:epoch_len trace in
          check Alcotest.int
            (Printf.sprintf "%s/%s accesses are exact" wname policy)
            seq.Engine.accesses sh.Engine.accesses;
          let e = rel_err (cost sh) (cost seq) in
          check Alcotest.bool
            (Printf.sprintf "%s/%s cost error %.4f <= %.2f" wname policy e
               Engine.documented_error_bound)
            true
            (e <= Engine.documented_error_bound))
        policies)
    workload_names

(* Shard count must never change the answer, only the schedule. *)
let test_shards_invariant () =
  let n = 8_000 in
  let trace = trace_of ~seed:3 ~n "bimodal" in
  let run shards =
    Engine.replay
      ~config:{ Engine.shards; epoch_len = 1_000; warmup = 1_000 }
      ~make_sim:(make_sim ~policy:"lru")
      (Engine.source_of_array trace)
  in
  let one = run 1 in
  List.iter
    (fun s ->
      check totals_testable
        (Printf.sprintf "shards=%d = shards=1" s)
        one (run s))
    [ 2; 3; 4; 8 ]

(* Streaming from a packed file and from the in-memory array are the
   same replay. *)
let test_stream_source_equivalence () =
  let n = 7_000 in
  let trace = trace_of ~seed:17 ~n "graph_walk" in
  let path = Filename.temp_file "atp_engine" ".atps" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Stream.pack_array ~chunk_size:512 path trace;
      let from_mem = sharded ~policy:"lru" ~epoch_len:2_000 ~warmup:2_000 trace in
      let from_file =
        Engine.replay
          ~config:{ Engine.shards; epoch_len = 2_000; warmup = 2_000 }
          ~make_sim:(make_sim ~policy:"lru")
          (Engine.source_of_stream path)
      in
      check totals_testable "file stream = array stream" from_mem from_file)

(* ------------------------------------------------------------------ *)
(* Streamed format round-trip                                          *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "atp_trace" ".tmp" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* pack -> stream -> cat: writing any generated trace as text, packing
   the text into ATPS, streaming it back, and re-rendering as text
   must reproduce the original file byte-for-byte. *)
let prop_pack_stream_cat_roundtrip =
  QCheck.Test.make ~name:"pack -> stream -> cat round-trips byte-for-byte"
    ~count:100
    QCheck.(
      pair (Sizes.range 1 64)
        (list_of_size Gen.(int_range 0 500) (int_bound 1_000_000)))
    (fun (chunk_size, pages) ->
      let trace = Array.of_list pages in
      with_temp (fun text_path ->
          with_temp (fun packed_path ->
              with_temp (fun out_path ->
                  Trace.save_text text_path trace;
                  Trace.pack ~chunk_size ~src:text_path ~dst:packed_path ();
                  let streamed = Trace.Stream.to_array packed_path in
                  Trace.save_text out_path streamed;
                  String.equal (read_file text_path) (read_file out_path)))))

(* Deltas can be negative and large; the zigzag varints must carry
   them. *)
let prop_stream_array_roundtrip =
  QCheck.Test.make ~name:"Stream.pack_array/to_array round-trip" ~count:100
    QCheck.(
      pair (Sizes.range 1 32)
        (list_of_size
           Gen.(int_range 0 300)
           (make ~print:string_of_int
              Gen.(
                oneof
                  [
                    int_bound 100;
                    int_bound 1_000_000_000;
                    map (fun n -> (1 lsl 52) + n) (int_bound 1_000);
                  ]))))
    (fun (chunk_size, pages) ->
      let trace = Array.of_list pages in
      with_temp (fun path ->
          Trace.Stream.pack_array ~chunk_size path trace;
          let back = Trace.Stream.to_array path in
          let h = Trace.Stream.with_reader path Trace.Stream.header in
          h.Trace.Stream.length = Array.length trace
          && h.Trace.Stream.chunk_size = chunk_size
          && Array.length back = Array.length trace
          && Array.for_all2 ( = ) back trace))

let test_stream_errors () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOPE";
      close_out oc;
      check Alcotest.bool "bad magic raises" true
        (match Trace.Stream.to_array path with
        | exception Trace.Parse_error _ -> true
        | _ -> false));
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "ATPS\001";
      close_out oc;
      check Alcotest.bool "truncated header raises" true
        (match Trace.Stream.to_array path with
        | exception Trace.Parse_error _ -> true
        | _ -> false));
  with_temp (fun path ->
      Trace.Stream.pack_array ~chunk_size:8 path (Array.init 100 (fun i -> i));
      let whole = read_file path in
      let oc = open_out_bin path in
      output_string oc (String.sub whole 0 (String.length whole - 3));
      close_out oc;
      check Alcotest.bool "truncated body raises" true
        (match Trace.Stream.to_array path with
        | exception Trace.Parse_error _ -> true
        | _ -> false))

let test_stream_empty () =
  with_temp (fun path ->
      Trace.Stream.pack_array path [||];
      check (Alcotest.array Alcotest.int) "empty trace round-trips" [||]
        (Trace.Stream.to_array path))

(* ------------------------------------------------------------------ *)
(* Text-format load regressions                                        *)
(* ------------------------------------------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_load_text_edge_cases () =
  with_temp (fun path ->
      write_file path "";
      check (Alcotest.array Alcotest.int) "empty file" [||]
        (Trace.load path));
  with_temp (fun path ->
      write_file path "# only\n# comments\n\n";
      check (Alcotest.array Alcotest.int) "comments-only file" [||]
        (Trace.load path));
  with_temp (fun path ->
      write_file path "1\n2\n3\n";
      check (Alcotest.array Alcotest.int) "trailing newline" [| 1; 2; 3 |]
        (Trace.load path));
  with_temp (fun path ->
      write_file path "1\n2\n3";
      check (Alcotest.array Alcotest.int) "no trailing newline" [| 1; 2; 3 |]
        (Trace.load path));
  with_temp (fun path ->
      write_file path "1\nnope\n";
      check Alcotest.bool "bad line raises" true
        (match Trace.load path with
        | exception Trace.Parse_error _ -> true
        | _ -> false))

(* workload_of_file opens the file once and dispatches all three
   formats; a text file shorter than the 4 magic bytes must still
   parse. *)
let test_workload_of_file_dispatch () =
  let trace = [| 5; 6; 7; 5 |] in
  let first_n w n = Array.to_list (Workload.generate w n) in
  with_temp (fun path ->
      Trace.save_text path trace;
      check (Alcotest.list Alcotest.int) "text" [ 5; 6; 7; 5 ]
        (first_n (Trace.workload_of_file path) 4));
  with_temp (fun path ->
      write_file path "1\n";
      check (Alcotest.list Alcotest.int) "tiny text file" [ 1; 1 ]
        (first_n (Trace.workload_of_file path) 2));
  with_temp (fun path ->
      Trace.save_binary path trace;
      check (Alcotest.list Alcotest.int) "binary" [ 5; 6; 7; 5 ]
        (first_n (Trace.workload_of_file path) 4));
  with_temp (fun path ->
      Trace.Stream.pack_array path trace;
      check (Alcotest.list Alcotest.int) "streamed" [ 5; 6; 7; 5 ]
        (first_n (Trace.workload_of_file path) 4));
  with_temp (fun path ->
      write_file path "";
      check Alcotest.bool "empty file refuses to replay" true
        (match Trace.workload_of_file path with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_pack_from_binary_and_streamed () =
  let trace = Array.init 1_000 (fun i -> (i * 37) mod 512) in
  with_temp (fun src ->
      with_temp (fun dst ->
          Trace.save_binary src trace;
          Trace.pack ~chunk_size:64 ~src ~dst ();
          check (Alcotest.array Alcotest.int) "ATPT -> ATPS" trace
            (Trace.Stream.to_array dst)));
  with_temp (fun src ->
      with_temp (fun dst ->
          Trace.Stream.pack_array ~chunk_size:100 src trace;
          Trace.pack ~chunk_size:64 ~src ~dst ();
          check (Alcotest.array Alcotest.int) "ATPS -> ATPS rechunk" trace
            (Trace.Stream.to_array dst)))

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "full warm-up is exact" `Quick
            test_exact_full_warmup;
          Alcotest.test_case "single epoch boundary is exact" `Quick
            test_exact_single_boundary;
          Alcotest.test_case "ragged tail is exact" `Quick
            test_exact_ragged_tail;
          Alcotest.test_case "multi-epoch error is bounded" `Quick
            test_bounded_multi_epoch;
          Alcotest.test_case "shard count never changes totals" `Quick
            test_shards_invariant;
          Alcotest.test_case "file stream = array stream" `Quick
            test_stream_source_equivalence;
        ] );
      ( "stream-format",
        qsuite [ prop_pack_stream_cat_roundtrip; prop_stream_array_roundtrip ]
        @ [
            Alcotest.test_case "corrupt files raise Parse_error" `Quick
              test_stream_errors;
            Alcotest.test_case "empty trace" `Quick test_stream_empty;
          ] );
      ( "text-format",
        [
          Alcotest.test_case "load_text edge cases" `Quick
            test_load_text_edge_cases;
          Alcotest.test_case "workload_of_file dispatch" `Quick
            test_workload_of_file_dispatch;
          Alcotest.test_case "pack from every format" `Quick
            test_pack_from_binary_and_streamed;
        ] );
    ]
