(* Small-surface tests that close API gaps the main suites don't
   exercise: formatting helpers, secondary entry points, and edge
   parameters. *)

open Atp_util
open Atp_paging
open Atp_workloads

let check = Alcotest.check

let test_prng_int_in_range () =
  let rng = Prng.create ~seed:1 () in
  for _ = 1 to 1_000 do
    let v = Prng.int_in_range rng ~lo:(-5) ~hi:5 in
    check Alcotest.bool "inclusive range" true (v >= -5 && v <= 5)
  done;
  check Alcotest.int "degenerate range" 3 (Prng.int_in_range rng ~lo:3 ~hi:3);
  Alcotest.check_raises "inverted" (Invalid_argument "Prng.int_in_range: lo > hi")
    (fun () -> ignore (Prng.int_in_range rng ~lo:2 ~hi:1))

let test_prng_copy_diverges_from_source () =
  let a = Prng.create ~seed:2 () in
  let b = Prng.copy a in
  (* Drawing from the copy must not advance the original. *)
  let from_b = Prng.next_int64 b in
  let from_a = Prng.next_int64 a in
  check Alcotest.int64 "same first draw" from_b from_a

let test_stats_pp_si () =
  let s v = Format.asprintf "%a" Stats.pp_si v in
  check Alcotest.string "giga" "1.5G" (s 1.5e9);
  check Alcotest.string "mega" "2M" (s 2.0e6);
  check Alcotest.string "kilo" "42k" (s 42_000.0);
  check Alcotest.string "unit" "7" (s 7.0)

let test_summary_pp () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 1.0;
  Stats.Summary.add s 3.0;
  let str = Format.asprintf "%a" Stats.Summary.pp s in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions n=2" true (contains str "n=2")

let test_log_histogram_pp_and_bounds () =
  let h = Stats.Log_histogram.create () in
  Stats.Log_histogram.add h 5;
  let str = Format.asprintf "%a" Stats.Log_histogram.pp h in
  check Alcotest.bool "renders a bucket" true (String.length str > 0);
  Alcotest.check_raises "negative"
    (Invalid_argument "Log_histogram.add: negative value") (fun () ->
      Stats.Log_histogram.add h (-1))

let test_policy_helpers () =
  check Alcotest.bool "hit" true (Policy.is_hit Policy.Hit);
  check Alcotest.bool "miss" false (Policy.is_hit (Policy.Miss { evicted = None }));
  check Alcotest.(option int) "evicted of hit" None (Policy.evicted Policy.Hit);
  check Alcotest.(option int) "evicted of miss" (Some 3)
    (Policy.evicted (Policy.Miss { evicted = Some 3 }))

let test_opt_instance_remove () =
  let inst = Opt.instance ~capacity:2 [| 1; 2; 1 |] in
  ignore (inst.Policy.access 1);
  check Alcotest.bool "remove resident" true (inst.Policy.remove 1);
  check Alcotest.bool "remove absent" false (inst.Policy.remove 1);
  check Alcotest.int "size" 0 (inst.Policy.size ())

let test_slots_errors () =
  let s = Slots.create 2 in
  let _ = Slots.alloc s 10 in
  Alcotest.check_raises "duplicate page"
    (Invalid_argument "Slots.alloc: page already resident") (fun () ->
      ignore (Slots.alloc s 10));
  let _ = Slots.alloc s 11 in
  Alcotest.check_raises "full" (Invalid_argument "Slots.alloc: cache full")
    (fun () -> ignore (Slots.alloc s 12));
  check Alcotest.bool "is_full" true (Slots.is_full s)

let test_bimodal_hot_fraction_bounds () =
  let rng = Prng.create ~seed:3 () in
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Bimodal.create: hot_fraction out of range") (fun () ->
      ignore (Bimodal.create ~hot_fraction:1.5 ~hot_pages:1 ~virtual_pages:10 rng))

let test_graph_walk_out_degree_validation () =
  let rng = Prng.create ~seed:4 () in
  Alcotest.check_raises "bad degree"
    (Invalid_argument "Graph_walk.create: out_degree must be positive")
    (fun () -> ignore (Graph_walk.create ~out_degree:0 ~virtual_pages:10 rng))

let test_registry_names_match_modules () =
  List.iter
    (fun (module P : Policy.S) ->
      match Registry.find P.name with
      | Some (module Q : Policy.S) ->
        check Alcotest.string "roundtrip" P.name Q.name
      | None -> Alcotest.fail ("missing " ^ P.name))
    Registry.all

let test_mattson_curve_api () =
  let m = Mattson.of_trace [| 1; 2; 1; 2; 3 |] in
  check
    Alcotest.(list (pair int int))
    "curve rows"
    [ (1, 5); (2, 3); (3, 3) ]
    (Mattson.curve m ~capacities:[ 1; 2; 3 ])

let () =
  Alcotest.run "atp.coverage"
    [
      ( "util",
        [
          Alcotest.test_case "int_in_range" `Quick test_prng_int_in_range;
          Alcotest.test_case "copy semantics" `Quick test_prng_copy_diverges_from_source;
          Alcotest.test_case "pp_si" `Quick test_stats_pp_si;
          Alcotest.test_case "summary pp" `Quick test_summary_pp;
          Alcotest.test_case "histogram pp/bounds" `Quick test_log_histogram_pp_and_bounds;
        ] );
      ( "paging",
        [
          Alcotest.test_case "policy helpers" `Quick test_policy_helpers;
          Alcotest.test_case "opt instance remove" `Quick test_opt_instance_remove;
          Alcotest.test_case "slots errors" `Quick test_slots_errors;
          Alcotest.test_case "registry roundtrip" `Quick test_registry_names_match_modules;
          Alcotest.test_case "mattson curve" `Quick test_mattson_curve_api;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "bimodal bounds" `Quick test_bimodal_hot_fraction_bounds;
          Alcotest.test_case "walk validation" `Quick test_graph_walk_out_degree_validation;
        ] );
    ]
