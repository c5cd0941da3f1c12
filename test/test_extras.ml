(* Tests for the extended analysis tools and policies: Mattson
   miss-ratio curves, SLRU and LIRS. *)

open Atp_paging
open Atp_util

let check = Alcotest.check

(* --- Mattson ----------------------------------------------------------- *)

let lru_misses capacity trace =
  (Sim.run (Policy.instantiate (module Lru) ~capacity ()) trace).Sim.misses

let test_mattson_matches_lru () =
  let rng = Prng.create ~seed:1 () in
  let trace = Array.init 5_000 (fun _ -> Prng.int rng 300) in
  let m = Mattson.of_trace trace in
  List.iter
    (fun c ->
      check Alcotest.int
        (Printf.sprintf "capacity %d" c)
        (lru_misses c trace) (Mattson.misses m c))
    [ 1; 2; 7; 32; 100; 299; 300; 1000 ]

let test_mattson_zipf_matches_lru () =
  let rng = Prng.create ~seed:2 () in
  let sample = Sampler.zipf ~s:1.1 ~n:2_000 in
  let trace = Array.init 8_000 (fun _ -> sample rng) in
  let m = Mattson.of_trace trace in
  List.iter
    (fun c ->
      check Alcotest.int
        (Printf.sprintf "capacity %d" c)
        (lru_misses c trace) (Mattson.misses m c))
    [ 1; 16; 128; 512 ]

let test_mattson_basics () =
  let m = Mattson.of_trace [| 1; 2; 1; 3; 1 |] in
  check Alcotest.int "accesses" 5 (Mattson.accesses m);
  check Alcotest.int "cold" 3 (Mattson.cold_misses m);
  check Alcotest.int "distinct" 3 (Mattson.distinct_pages m);
  (* Distances: 1 after 2 -> d=1; 1 after 3 -> d=1.  With c=1 both
     re-accesses miss; with c=2 both hit. *)
  check Alcotest.int "c=1" 5 (Mattson.misses m 1);
  check Alcotest.int "c=2" 3 (Mattson.misses m 2)

let test_mattson_monotone () =
  let rng = Prng.create ~seed:3 () in
  let trace = Array.init 3_000 (fun _ -> Prng.int rng 200) in
  let m = Mattson.of_trace trace in
  let prev = ref max_int in
  List.iter
    (fun c ->
      let misses = Mattson.misses m c in
      check Alcotest.bool "non-increasing" true (misses <= !prev);
      prev := misses)
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

let test_mattson_working_set () =
  (* A loop over 50 pages: capacity 50 captures every re-access. *)
  let trace = Array.init 5_000 (fun i -> i mod 50) in
  let m = Mattson.of_trace trace in
  check Alcotest.int "ws(1.0) = loop size" 50
    (Mattson.working_set_size m ~fraction:1.0);
  check Alcotest.int "cold = loop size" 50 (Mattson.cold_misses m)

let test_mattson_rejects_bad_input () =
  let m = Mattson.of_trace [| 1 |] in
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Mattson.misses: capacity must be at least 1") (fun () ->
      ignore (Mattson.misses m 0))

(* --- SLRU --------------------------------------------------------------- *)

let test_slru_scan_resistance () =
  (* A hot set cycled through the protected segment survives a long
     one-shot scan that floods probation. *)
  let capacity = 100 in
  let t = Slru.create ~capacity () in
  (* Establish the hot set with two rounds (second hit promotes). *)
  for _ = 1 to 2 do
    for v = 0 to 49 do ignore (Slru.access t v) done
  done;
  (* One-shot scan of 1000 cold pages. *)
  for v = 1_000 to 1_999 do ignore (Slru.access t v) done;
  (* The hot set must still be largely resident. *)
  let surviving = List.length (List.filter (Slru.mem t) (List.init 50 Fun.id)) in
  check Alcotest.bool
    (Printf.sprintf "hot pages survive the scan (%d of 50)" surviving)
    true (surviving >= 40)

let test_slru_beats_lru_on_scan_mix () =
  let rng = Prng.create ~seed:4 () in
  let trace =
    Array.init 30_000 (fun i ->
        if i mod 3 = 0 then 10_000 + (i / 3 mod 5_000)  (* rolling scan *)
        else Prng.int rng 80 (* hot set *))
  in
  let misses (module P : Policy.S) =
    (Sim.run (Policy.instantiate (module P) ~capacity:100 ()) trace).Sim.misses
  in
  check Alcotest.bool "slru <= lru on scan mix" true
    (misses (module Slru) <= misses (module Lru))

(* --- LIRS --------------------------------------------------------------- *)

let test_lirs_loop_beats_lru () =
  (* The classic LIRS showcase: a loop one page larger than the cache.
     LRU misses every access; LIRS settles into hitting the LIR set. *)
  let capacity = 100 in
  let trace = Array.init 20_000 (fun i -> i mod (capacity + 1)) in
  let lru = (Sim.run (Policy.instantiate (module Lru) ~capacity ()) trace).Sim.misses in
  let lirs = (Sim.run (Policy.instantiate (module Lirs) ~capacity ()) trace).Sim.misses in
  check Alcotest.int "LRU thrashes completely" 20_000 lru;
  check Alcotest.bool
    (Printf.sprintf "LIRS (%d) far below LRU (%d)" lirs lru)
    true
    (lirs < lru / 2)

let test_lirs_stack_bounded () =
  (* A huge one-shot scan must not blow up the ghost stack. *)
  let t = Lirs.create ~capacity:50 () in
  for v = 0 to 99_999 do ignore (Lirs.access t v) done;
  check Alcotest.bool "size bounded" true (Lirs.size t <= 50);
  (* Resident list agrees with size. *)
  check Alcotest.int "resident length" (Lirs.size t)
    (List.length (Lirs.resident t))

let test_lirs_promotion () =
  let t = Lirs.create ~capacity:10 () in
  (* Fill the LIR set. *)
  for v = 0 to 8 do ignore (Lirs.access t v) done;
  (* Page 100 becomes resident HIR, then a re-access within the stack
     promotes it. *)
  ignore (Lirs.access t 100);
  ignore (Lirs.access t 100);
  check Alcotest.bool "still resident after promotion" true (Lirs.mem t 100)

let () =
  Alcotest.run "atp.extras"
    [
      ( "mattson",
        [
          Alcotest.test_case "matches LRU (uniform)" `Quick test_mattson_matches_lru;
          Alcotest.test_case "matches LRU (zipf)" `Quick test_mattson_zipf_matches_lru;
          Alcotest.test_case "basics" `Quick test_mattson_basics;
          Alcotest.test_case "monotone" `Quick test_mattson_monotone;
          Alcotest.test_case "working set" `Quick test_mattson_working_set;
          Alcotest.test_case "bad input" `Quick test_mattson_rejects_bad_input;
        ] );
      ( "slru",
        [
          Alcotest.test_case "scan resistance" `Quick test_slru_scan_resistance;
          Alcotest.test_case "beats LRU on scan mix" `Quick test_slru_beats_lru_on_scan_mix;
        ] );
      ( "lirs",
        [
          Alcotest.test_case "loop beats LRU" `Quick test_lirs_loop_beats_lru;
          Alcotest.test_case "stack bounded" `Quick test_lirs_stack_bounded;
          Alcotest.test_case "promotion" `Quick test_lirs_promotion;
        ] );
    ]
