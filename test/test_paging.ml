open Atp_paging
open Atp_util

let check = Alcotest.check

let outcome : Policy.outcome Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Policy.Hit -> Format.fprintf ppf "Hit"
      | Policy.Miss { evicted } ->
        Format.fprintf ppf "Miss(evicted=%s)"
          (match evicted with None -> "-" | Some p -> string_of_int p))
    ( = )

let all_policies : (module Policy.S) list = Registry.all

(* --- Generic invariants, run against every registered policy ------- *)

let generic_capacity_respected (module P : Policy.S) () =
  let rng = Prng.create ~seed:1 () in
  let t = P.create ~rng ~capacity:4 () in
  for i = 0 to 99 do
    ignore (P.access t (i mod 13))
  done;
  check Alcotest.bool
    (P.name ^ ": size within capacity")
    true
    (P.size t <= 4)

let generic_hit_iff_resident (module P : Policy.S) () =
  let rng = Prng.create ~seed:2 () in
  let t = P.create ~rng ~capacity:8 () in
  let walk = Prng.create ~seed:3 () in
  for _ = 0 to 499 do
    let page = Prng.int walk 20 in
    let was_resident = P.mem t page in
    match P.access t page with
    | Policy.Hit ->
      check Alcotest.bool (P.name ^ ": hit implies resident") true was_resident
    | Policy.Miss _ ->
      check Alcotest.bool (P.name ^ ": miss implies absent") false was_resident
  done

let generic_miss_inserts (module P : Policy.S) () =
  let rng = Prng.create ~seed:4 () in
  let t = P.create ~rng ~capacity:3 () in
  for page = 0 to 9 do
    ignore (P.access t page);
    check Alcotest.bool (P.name ^ ": page resident after access") true
      (P.mem t page)
  done

let generic_eviction_consistency (module P : Policy.S) () =
  let rng = Prng.create ~seed:5 () in
  let t = P.create ~rng ~capacity:3 () in
  let walk = Prng.create ~seed:6 () in
  for _ = 0 to 499 do
    let page = Prng.int walk 11 in
    match P.access t page with
    | Policy.Hit -> ()
    | Policy.Miss { evicted = None } -> ()
    | Policy.Miss { evicted = Some victim } ->
      check Alcotest.bool (P.name ^ ": victim no longer resident") false
        (P.mem t victim);
      check Alcotest.bool (P.name ^ ": victim differs from filled page") true
        (victim <> page)
  done

let generic_remove (module P : Policy.S) () =
  let rng = Prng.create ~seed:7 () in
  let t = P.create ~rng ~capacity:4 () in
  ignore (P.access t 1);
  ignore (P.access t 2);
  check Alcotest.bool (P.name ^ ": remove resident") true (P.remove t 1);
  check Alcotest.bool (P.name ^ ": removed gone") false (P.mem t 1);
  check Alcotest.bool (P.name ^ ": remove absent") false (P.remove t 99)

let generic_resident_matches_size (module P : Policy.S) () =
  let rng = Prng.create ~seed:8 () in
  let t = P.create ~rng ~capacity:5 () in
  let walk = Prng.create ~seed:9 () in
  for _ = 0 to 199 do
    ignore (P.access t (Prng.int walk 17))
  done;
  let r = P.resident t in
  check Alcotest.int (P.name ^ ": resident list length") (P.size t)
    (List.length r);
  check Alcotest.int
    (P.name ^ ": resident list distinct")
    (List.length r)
    (List.length (List.sort_uniq compare r));
  List.iter
    (fun page -> check Alcotest.bool (P.name ^ ": listed page is resident") true (P.mem t page))
    r

let generic_suite p =
  let (module P : Policy.S) = p in
  ( P.name,
    [
      Alcotest.test_case "capacity" `Quick (generic_capacity_respected p);
      Alcotest.test_case "hit iff resident" `Quick (generic_hit_iff_resident p);
      Alcotest.test_case "miss inserts" `Quick (generic_miss_inserts p);
      Alcotest.test_case "eviction consistent" `Quick (generic_eviction_consistency p);
      Alcotest.test_case "remove" `Quick (generic_remove p);
      Alcotest.test_case "resident list" `Quick (generic_resident_matches_size p);
    ] )

(* --- Policy-specific behaviour ------------------------------------ *)

let test_lru_evicts_least_recent () =
  let t = Lru.create ~capacity:3 () in
  ignore (Lru.access t 1);
  ignore (Lru.access t 2);
  ignore (Lru.access t 3);
  ignore (Lru.access t 1);
  (* Now LRU order (most..least) is 1 3 2; inserting 4 evicts 2. *)
  check outcome "evicts 2" (Policy.Miss { evicted = Some 2 }) (Lru.access t 4)

let test_lru_chase_defeats_small_tlb () =
  (* Classic result: a cyclic chase over one page more than the TLB
     holds misses every access under LRU. *)
  let trace = Array.init 1_000 (fun i -> i mod 100) in
  let inst = Policy.instantiate (module Lru) ~capacity:99 () in
  let stats = Sim.run inst trace in
  check Alcotest.int "misses everything" 1_000 stats.Sim.misses

let test_fifo_ignores_hits () =
  let t = Fifo.create ~capacity:3 () in
  ignore (Fifo.access t 1);
  ignore (Fifo.access t 2);
  ignore (Fifo.access t 3);
  ignore (Fifo.access t 1);
  (* 1 is oldest despite the recent hit. *)
  check outcome "evicts 1" (Policy.Miss { evicted = Some 1 }) (Fifo.access t 4)

let test_mru_evicts_most_recent () =
  let t = Mru.create ~capacity:3 () in
  ignore (Mru.access t 1);
  ignore (Mru.access t 2);
  ignore (Mru.access t 3);
  check outcome "evicts 3" (Policy.Miss { evicted = Some 3 }) (Mru.access t 4)

let test_clock_second_chance () =
  let t = Clock.create ~capacity:3 () in
  ignore (Clock.access t 1);
  ignore (Clock.access t 2);
  ignore (Clock.access t 3);
  (* All ref bits set; the sweep clears 1's and 2's and 3's bits, wraps,
     and takes frame of 1. *)
  check outcome "evicts 1" (Policy.Miss { evicted = Some 1 }) (Clock.access t 4);
  (* Now touching 2 gives it a second chance over 3. *)
  ignore (Clock.access t 2);
  check outcome "evicts 3" (Policy.Miss { evicted = Some 3 }) (Clock.access t 5)

let test_lfu_evicts_least_frequent () =
  let t = Lfu.create ~capacity:3 () in
  ignore (Lfu.access t 1);
  ignore (Lfu.access t 1);
  ignore (Lfu.access t 2);
  ignore (Lfu.access t 2);
  ignore (Lfu.access t 3);
  check outcome "evicts 3 (freq 1)" (Policy.Miss { evicted = Some 3 })
    (Lfu.access t 4)

let test_lfu_tie_breaks_oldest () =
  let t = Lfu.create ~capacity:2 () in
  ignore (Lfu.access t 1);
  ignore (Lfu.access t 2);
  check outcome "tie evicts older insert" (Policy.Miss { evicted = Some 1 })
    (Lfu.access t 3)

let test_two_q_promotion () =
  let t = Two_q.create ~capacity:8 () in
  (* Fill a1in (kin = 2) beyond its target so pages spill to the ghost
     list, then re-reference a ghost: it must come back resident. *)
  for page = 0 to 7 do
    ignore (Two_q.access t page)
  done;
  ignore (Two_q.access t 100);
  (* page 0 fell out of a1in into a1out by now *)
  check Alcotest.bool "evicted from a1in" false (Two_q.mem t 0);
  (match Two_q.access t 0 with
   | Policy.Hit -> Alcotest.fail "expected a miss for ghost page"
   | Policy.Miss _ -> ());
  check Alcotest.bool "promoted" true (Two_q.mem t 0)

let test_arc_adapts () =
  let t = Arc.create ~capacity:4 () in
  (* Straight fill then ghost hit: page must return. *)
  for page = 0 to 5 do
    ignore (Arc.access t page)
  done;
  check Alcotest.bool "size bounded" true (Arc.size t <= 4);
  (* 0 and 1 were evicted to b1; touching 0 is a ghost hit. *)
  (match Arc.access t 0 with
   | Policy.Hit -> Alcotest.fail "0 should not be resident"
   | Policy.Miss _ -> ());
  check Alcotest.bool "ghost promoted" true (Arc.mem t 0)

let test_random_evicts_uniformly () =
  let rng = Prng.create ~seed:11 () in
  let counts = Hashtbl.create 8 in
  for _ = 1 to 2_000 do
    let t = Rand_policy.create ~rng ~capacity:3 () in
    ignore (Rand_policy.access t 1);
    ignore (Rand_policy.access t 2);
    ignore (Rand_policy.access t 3);
    match Rand_policy.access t 4 with
    | Policy.Miss { evicted = Some v } ->
      Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0)
    | _ -> Alcotest.fail "expected an eviction"
  done;
  List.iter
    (fun v ->
      let c = Option.value (Hashtbl.find_opt counts v) ~default:0 in
      check Alcotest.bool
        (Printf.sprintf "victim %d drawn often" v)
        true (c > 500))
    [ 1; 2; 3 ]

(* --- OPT ----------------------------------------------------------- *)

let test_opt_beats_lru_on_loop () =
  (* Cyclic scan of k+1 pages through a k-cache: LRU misses always,
     OPT misses ~1/k of the time. *)
  let n = 600 in
  let trace = Array.init n (fun i -> i mod 4) in
  let lru = Policy.instantiate (module Lru) ~capacity:3 () in
  let lru_stats = Sim.run lru trace in
  check Alcotest.int "LRU thrashes" n lru_stats.Sim.misses;
  let opt_misses = Opt.misses ~capacity:3 trace in
  check Alcotest.bool "OPT far better" true (opt_misses < (n / 2));
  check Alcotest.bool "OPT at least compulsory" true (opt_misses >= 4)

let test_opt_exact_small_case () =
  (* Belady on a classic example:
     trace 1 2 3 4 1 2 5 1 2 3 4 5, capacity 3 -> 7 misses. *)
  let trace = [| 1; 2; 3; 4; 1; 2; 5; 1; 2; 3; 4; 5 |] in
  check Alcotest.int "textbook Belady count" 7 (Opt.misses ~capacity:3 trace)

let test_opt_rejects_deviation () =
  let t = Opt.create ~capacity:2 [| 1; 2; 3 |] in
  ignore (Opt.access t 1);
  Alcotest.check_raises "deviation"
    (Invalid_argument "Opt.access: request deviates from the trace") (fun () ->
      ignore (Opt.access t 3))

let prop_opt_no_worse_than_online =
  QCheck.Test.make ~name:"OPT <= every online policy" ~count:60
    QCheck.(pair (Sizes.range 1 6) (list_of_size (Gen.return 120) (int_bound 12)))
    (fun (capacity, pages) ->
      let trace = Array.of_list pages in
      Array.length trace = 0
      ||
      let opt = Opt.misses ~capacity trace in
      List.for_all
        (fun (module P : Policy.S) ->
          (* Randomized policies are compared in expectation; a single
             seeded run suffices because OPT's bound is per-sequence. *)
          let rng = Prng.create ~seed:99 () in
          let inst = Policy.instantiate (module P) ~rng ~capacity () in
          let stats = Sim.run inst trace in
          opt <= stats.Sim.misses)
        all_policies)

let prop_lru_augmentation_monotone =
  QCheck.Test.make ~name:"LRU misses never increase with capacity" ~count:60
    QCheck.(pair (Sizes.range 1 8) (list_of_size (Gen.return 150) (int_bound 20)))
    (fun (capacity, pages) ->
      let trace = Array.of_list pages in
      let misses c =
        (Sim.run (Policy.instantiate (module Lru) ~capacity:c ()) trace).Sim.misses
      in
      misses (capacity + 1) <= misses capacity)

(* --- Sim ------------------------------------------------------------ *)

let test_sim_counts () =
  let trace = [| 1; 2; 1; 3; 1; 4 |] in
  let inst = Policy.instantiate (module Lru) ~capacity:2 () in
  let stats = Sim.run inst trace in
  check Alcotest.int "accesses" 6 stats.Sim.accesses;
  check Alcotest.int "hits + misses = accesses" 6
    (stats.Sim.hits + stats.Sim.misses);
  (* 1,2 miss; 1 hit; 3 miss evicting; 1 hit; 4 miss evicting *)
  check Alcotest.int "misses" 4 stats.Sim.misses;
  check Alcotest.int "evictions" 2 stats.Sim.evictions;
  check (Alcotest.float 1e-9) "miss rate" (4.0 /. 6.0) (Sim.miss_rate stats)

let test_registry () =
  check Alcotest.bool "finds lru" true (Registry.find "lru" <> None);
  check Alcotest.bool "rejects unknown" true (Registry.find "belady" = None);
  check Alcotest.int "ten policies" 10 (List.length Registry.all);
  Alcotest.check_raises "find_exn message"
    (Invalid_argument
       "unknown policy \"nope\" (known: lru, fifo, clock, lfu, mru, random, \
        2q, arc, slru, lirs)") (fun () -> ignore (Registry.find_exn "nope"))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- access_fast = access for every registered policy --------------- *)

let prop_access_fast_equals_access =
  QCheck.Test.make ~count:60
    ~name:"mirrors access, every policy"
    QCheck.(
      triple (Sizes.range 1 24) (Sizes.range 2 60)
        (list_of_size Gen.(int_range 1 300) (int_bound 1000)))
    (fun (capacity, universe, pages) ->
      let trace = List.map (fun p -> p mod universe) pages in
      List.for_all
        (fun name ->
          let fresh () =
            Policy.instantiate (Registry.find_exn name)
              ~rng:(Prng.create ~seed:5 ())
              ~capacity ()
          in
          let boxed = fresh () and fast = fresh () in
          List.for_all
            (fun page ->
              boxed.Policy.access page
              = Policy.outcome_of_fast (fast.Policy.access_fast page))
            trace)
        Registry.names)

(* --- Lru.touch = mem + access_fast on a resident page ----------------- *)

let prop_lru_touch =
  QCheck.Test.make ~count:100 ~name:"touch refreshes like mem + access_fast"
    QCheck.(
      pair (Sizes.range 1 16)
        (list_of_size Gen.(int_range 1 300) (pair bool (int_bound 40))))
    (fun (capacity, ops) ->
      let t = Lru.create ~capacity () and model = Lru.create ~capacity () in
      let sorted l = List.sort compare l in
      List.for_all
        (fun (touch, page) ->
          if touch then begin
            let size = Lru.size t and resident = sorted (Lru.resident t) in
            let hit = Lru.touch t page in
            let resident_in_model = Lru.mem model page in
            if resident_in_model then ignore (Lru.access_fast model page);
            hit = resident_in_model
            && (hit
               || Lru.size t = size
                  && sorted (Lru.resident t) = resident)
          end
          else Lru.access_fast t page = Lru.access_fast model page)
        ops)

let () =
  Alcotest.run "atp.paging"
    (List.map generic_suite all_policies
    @ [
        ( "lru/fifo/mru/clock",
          [
            Alcotest.test_case "lru order" `Quick test_lru_evicts_least_recent;
            Alcotest.test_case "chase defeats small TLB" `Quick
              test_lru_chase_defeats_small_tlb;
            Alcotest.test_case "fifo order" `Quick test_fifo_ignores_hits;
            Alcotest.test_case "mru order" `Quick test_mru_evicts_most_recent;
            Alcotest.test_case "clock second chance" `Quick test_clock_second_chance;
          ] );
        ( "lfu/2q/arc/random",
          [
            Alcotest.test_case "lfu frequency" `Quick test_lfu_evicts_least_frequent;
            Alcotest.test_case "lfu tie" `Quick test_lfu_tie_breaks_oldest;
            Alcotest.test_case "2q promotion" `Quick test_two_q_promotion;
            Alcotest.test_case "arc ghost hit" `Quick test_arc_adapts;
            Alcotest.test_case "random uniform victim" `Quick test_random_evicts_uniformly;
          ] );
        ( "opt",
          Alcotest.test_case "beats LRU on loop" `Quick test_opt_beats_lru_on_loop
          :: Alcotest.test_case "textbook example" `Quick test_opt_exact_small_case
          :: Alcotest.test_case "rejects deviation" `Quick test_opt_rejects_deviation
          :: qsuite [ prop_opt_no_worse_than_online; prop_lru_augmentation_monotone ]
        );
        ( "sim",
          [
            Alcotest.test_case "counts" `Quick test_sim_counts;
            Alcotest.test_case "registry" `Quick test_registry;
          ] );
        ("access_fast", qsuite [ prop_access_fast_equals_access ]);
        ("lru touch", qsuite [ prop_lru_touch ]);
      ])
