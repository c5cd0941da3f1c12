(* Tests for the competitive-analysis toolkit and the Machine/Lemma-1
   cross-validation. *)

open Atp_paging
open Atp_memsim
open Atp_util

let check = Alcotest.check

(* --- Competitive ------------------------------------------------------- *)

let test_lru_adversary_realizes_lower_bound () =
  (* On the cyclic adversary LRU faults every access; OPT faults about
     1/k of the time, so the ratio approaches k. *)
  let k = 8 in
  let trace = Competitive.lru_adversary ~capacity:k ~length:8_000 in
  let ratio = Competitive.ratio_vs_opt (module Lru) ~capacity:k trace in
  check Alcotest.bool
    (Printf.sprintf "ratio %.2f close to k=%d" ratio k)
    true
    (ratio > float_of_int k *. 0.8)

let test_sleator_tarjan_bound_values () =
  check (Alcotest.float 1e-9) "no augmentation" 8.0
    (Competitive.sleator_tarjan_bound ~k:8 ~h:8);
  check (Alcotest.float 1e-9) "double memory" 2.0
    (Competitive.sleator_tarjan_bound ~k:8 ~h:5);
  Alcotest.check_raises "h > k"
    (Invalid_argument "Competitive.sleator_tarjan_bound: need 1 <= h <= k")
    (fun () -> ignore (Competitive.sleator_tarjan_bound ~k:4 ~h:5))

let test_sleator_tarjan_holds_on_adversary () =
  let k = 10 in
  let trace = Competitive.lru_adversary ~capacity:k ~length:5_000 in
  List.iter
    (fun h ->
      check Alcotest.bool
        (Printf.sprintf "bound holds for h=%d" h)
        true
        (Competitive.check_sleator_tarjan ~k ~h trace))
    [ 1; 5; 10 ]

let prop_sleator_tarjan_on_random_traces =
  QCheck.Test.make ~count:60 ~name:"Sleator-Tarjan bound holds on random traces"
    QCheck.(
      triple (Sizes.range 2 10) (Sizes.range 1 10)
        (list_of_size (Gen.return 400) (int_bound 30)))
    (fun (k, h, pages) ->
      let h = min h k in
      Competitive.check_sleator_tarjan ~k ~h (Array.of_list pages))

let test_augmentation_curve_monotone () =
  let rng = Prng.create ~seed:1 () in
  let trace = Array.init 4_000 (fun _ -> Prng.int rng 40) in
  let curve =
    Competitive.augmentation_curve (module Lru) ~k:16 ~hs:[ 4; 8; 16 ] trace
  in
  (* More augmentation (smaller h) means a smaller measured ratio and a
     smaller bound. *)
  (match curve with
   | [ (_, r4, b4); (_, r8, b8); (_, r16, b16) ] ->
     check Alcotest.bool "measured monotone" true (r4 <= r8 && r8 <= r16);
     check Alcotest.bool "bounds monotone" true (b4 <= b8 && b8 <= b16);
     List.iter
       (fun (h, r, b) ->
         check Alcotest.bool
           (Printf.sprintf "measured %.3f within bound %.3f (h=%d)" r b h)
           true
           (r <= b +. 0.05))
       curve
   | _ -> Alcotest.fail "expected three rows")

(* --- Machine vs Lemma 1 -------------------------------------------------- *)

let test_machine_matches_lemma1_reduction () =
  (* The Section 6 simulator at huge-page size h must agree exactly
     with the classical paging reduction: TLB misses = misses of LRU(l)
     on r(p) and IOs = h * misses of LRU(P/h) on r(p). *)
  let rng = Prng.create ~seed:7 () in
  let trace = Array.init 30_000 (fun _ -> Prng.int rng 3_000) in
  List.iter
    (fun h ->
      let ram = 1 lsl 10 and tlb = 64 in
      let m =
        Machine.create
          { Machine.default_config with
            ram_pages = ram; tlb_entries = tlb; huge_size = h }
      in
      let c = Machine.run m trace in
      let huge_trace = Array.map (fun p -> p / h) trace in
      let tlb_ref =
        Sim.run (Policy.instantiate (module Lru) ~capacity:tlb ()) huge_trace
      in
      let ram_ref =
        Sim.run (Policy.instantiate (module Lru) ~capacity:(ram / h) ()) huge_trace
      in
      check Alcotest.int
        (Printf.sprintf "h=%d: TLB misses = LRU(l) on r(p)" h)
        tlb_ref.Sim.misses c.Machine.tlb_misses;
      check Alcotest.int
        (Printf.sprintf "h=%d: IOs = h * LRU(P/h) on r(p)" h)
        (h * ram_ref.Sim.misses)
        c.Machine.ios)
    [ 1; 4; 16 ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "atp.analysis"
    [
      ( "competitive",
        Alcotest.test_case "adversary realizes k" `Quick
          test_lru_adversary_realizes_lower_bound
        :: Alcotest.test_case "bound values" `Quick test_sleator_tarjan_bound_values
        :: Alcotest.test_case "bound on adversary" `Quick
             test_sleator_tarjan_holds_on_adversary
        :: Alcotest.test_case "augmentation curve" `Quick test_augmentation_curve_monotone
        :: qsuite [ prop_sleator_tarjan_on_random_traces ] );
      ( "machine-lemma1",
        [
          Alcotest.test_case "machine = paging reduction" `Quick
            test_machine_matches_lemma1_reduction;
        ] );
    ]
