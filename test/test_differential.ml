(* Differential tests: independent implementations of the same
   quantity must agree.

   - Belady's OPT is offline-optimal, so on any shared trace it can
     never incur more misses than any registered online policy.
   - Mattson stack distances yield the LRU miss count for every
     capacity in one pass; a direct LRU simulation per capacity must
     reproduce the same curve. *)

open Atp_util
open Atp_paging

let check = Alcotest.check

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let random_trace ~seed ~n ~universe =
  let rng = Prng.create ~seed () in
  Array.init n (fun _ -> Prng.int rng universe)

(* A crude Zipf-ish skew: square the uniform draw so low page ids
   dominate, the shape paging experiments care about. *)
let skewed_trace ~seed ~n ~universe =
  let rng = Prng.create ~seed () in
  Array.init n (fun _ ->
      let u = Prng.float rng in
      int_of_float (u *. u *. float_of_int universe) mod universe)

let lru_misses capacity trace =
  (Sim.run (Policy.instantiate (module Lru) ~capacity ()) trace).Sim.misses

(* --- OPT lower-bounds every online policy --------------------------- *)

let prop_opt_lower_bounds_all =
  QCheck.Test.make ~name:"OPT <= every online policy on random streams"
    ~count:40
    QCheck.(
      triple (Sizes.range 1 12) (Sizes.range 2 40)
        (list_of_size Gen.(int_range 1 250) (int_bound 1000)))
    (fun (capacity, universe, pages) ->
      let trace =
        Array.of_list (List.map (fun p -> p mod universe) pages)
      in
      let opt = Opt.misses ~capacity trace in
      List.for_all
        (fun (module P : Policy.S) ->
          let rng = Prng.create ~seed:123 () in
          let inst = Policy.instantiate (module P) ~rng ~capacity () in
          opt <= (Sim.run inst trace).Sim.misses)
        Registry.all)

let test_opt_lower_bounds_on_skewed () =
  (* Big deterministic instance — beyond qcheck's small cases. *)
  let trace = skewed_trace ~seed:31 ~n:20_000 ~universe:400 in
  List.iter
    (fun capacity ->
      let opt = Opt.misses ~capacity trace in
      List.iter
        (fun (module P : Policy.S) ->
          let rng = Prng.create ~seed:77 () in
          let inst = Policy.instantiate (module P) ~rng ~capacity () in
          let misses = (Sim.run inst trace).Sim.misses in
          check Alcotest.bool
            (Printf.sprintf "OPT(%d) <= %s(%d)" opt P.name misses)
            true (opt <= misses))
        Registry.all)
    [ 8; 64; 256 ]

(* --- Mattson curves vs direct LRU simulation ------------------------ *)

let prop_mattson_reproduces_lru_curve =
  QCheck.Test.make ~name:"Mattson misses = simulated LRU, all capacities"
    ~count:60
    QCheck.(
      pair (Sizes.range 2 24)
        (list_of_size Gen.(int_range 1 200) (int_bound 1000)))
    (fun (universe, pages) ->
      let trace =
        Array.of_list (List.map (fun p -> p mod universe) pages)
      in
      let m = Mattson.of_trace trace in
      List.for_all
        (fun capacity -> Mattson.misses m capacity = lru_misses capacity trace)
        [ 1; 2; 3; 5; 8; 13; 21 ])

let test_mattson_curve_on_large_trace () =
  let trace = random_trace ~seed:5 ~n:30_000 ~universe:512 in
  let m = Mattson.of_trace trace in
  let capacities = [ 1; 4; 16; 64; 128; 256; 512; 1024 ] in
  List.iter
    (fun (c, mattson) ->
      check Alcotest.int
        (Printf.sprintf "capacity %d" c)
        (lru_misses c trace) mattson)
    (Mattson.curve m ~capacities);
  check Alcotest.int "beyond-footprint capacity leaves only cold misses"
    (Mattson.cold_misses m)
    (Mattson.misses m 1024)

let test_mattson_cold_misses_are_distinct_pages () =
  let trace = skewed_trace ~seed:9 ~n:10_000 ~universe:300 in
  let m = Mattson.of_trace trace in
  check Alcotest.int "cold misses = distinct pages"
    (Mattson.distinct_pages m) (Mattson.cold_misses m)

let () =
  Alcotest.run "differential"
    [
      ( "opt vs online",
        qsuite [ prop_opt_lower_bounds_all ]
        @ [
            Alcotest.test_case "skewed large trace" `Quick
              test_opt_lower_bounds_on_skewed;
          ] );
      ( "mattson vs lru",
        qsuite [ prop_mattson_reproduces_lru_curve ]
        @ [
            Alcotest.test_case "large trace curve" `Quick
              test_mattson_curve_on_large_trace;
            Alcotest.test_case "cold misses" `Quick
              test_mattson_cold_misses_are_distinct_pages;
          ] );
    ]
