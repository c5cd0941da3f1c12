(* The cost ledger: Cost.price is linear in every count, refuses bad
   prices, and prices each machine's ledger exactly as the formula that
   machine used to write out by hand.  Those formulas are kept below,
   verbatim, as the reference. *)

open Atp_memsim
module Cost = Atp_obs.Cost
module Simulation = Atp_core.Simulation
module Hybrid = Atp_core.Hybrid
module Engine = Atp_engine.Engine

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let ledger_of n =
  { Cost.ios = n.(0); tlb = n.(1); decode = n.(2); cheap = n.(3); ipis = n.(4) }

(* Dyadic prices (multiples of 1/1024) and counts below 2^21 keep every
   product and sum exact, so linearity holds bit for bit.  Left out,
   tcache_ε is ε. *)
let prop_linear =
  QCheck.Test.make ~name:"price is linear in each count" ~count:500
    QCheck.(
      triple
        (array_of_size (Gen.return 5) (int_bound (1 lsl 20)))
        (array_of_size (Gen.return 5) (int_bound (1 lsl 20)))
        (pair (int_bound 1024) (int_bound 1024)))
    (fun (a, b, (e, t)) ->
      let epsilon = float_of_int e /. 1024. in
      let tcache_epsilon = float_of_int (min e t) /. 1024. in
      let price l = Cost.price ~tcache_epsilon ~epsilon l in
      let unit = [| 1.0; epsilon; epsilon; tcache_epsilon; epsilon |] in
      let only j = ledger_of (Array.init 5 (fun k -> if k = j then a.(j) else 0)) in
      Float.equal (price Cost.zero) 0.0
      && Float.equal
           (Cost.price ~epsilon (ledger_of a))
           (Cost.price ~tcache_epsilon:epsilon ~epsilon (ledger_of a))
      && List.for_all
           (fun j -> Float.equal (price (only j)) (float_of_int a.(j) *. unit.(j)))
           [ 0; 1; 2; 3; 4 ]
      && Float.equal
           (price (ledger_of (Array.map2 ( + ) a b)))
           (price (ledger_of a) +. price (ledger_of b)))

(* The hand-written formulas the ledgers replaced.  [old_smp] is the
   multi-core machine's former [cost] under its only config, where the
   IPI price was ε. *)
let old_z ~epsilon ~ios ~fills ~decode =
  float_of_int ios +. (epsilon *. float_of_int (fills + decode))

let old_plain ~epsilon ~ios ~misses =
  float_of_int ios +. (epsilon *. float_of_int misses)

let old_reach ~epsilon ~tcache_epsilon ~ios ~misses ~hits =
  float_of_int ios
  +. (epsilon *. float_of_int (misses - hits))
  +. (tcache_epsilon *. float_of_int hits)

let old_smp ~epsilon ~tcache_epsilon ~ios ~misses ~hits ~ipis =
  float_of_int ios
  +. (epsilon *. float_of_int (misses - hits))
  +. (tcache_epsilon *. float_of_int hits)
  +. (epsilon *. float_of_int ipis)

let prop_matches_old_formulas =
  QCheck.Test.make ~name:"price (ledger c) = each machine's old formula"
    ~count:500
    QCheck.(
      pair
        (array_of_size (Gen.return 5) (int_bound (1 lsl 30)))
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (n, (epsilon, u)) ->
      let ios = n.(0) and tlb = n.(1) and decode = n.(2) and hits = n.(3)
      and ipis = n.(4) in
      (* Rounding is monotonic, so u <= 1 keeps this at most epsilon. *)
      let tcache_epsilon = epsilon *. u in
      let misses = tlb + hits in
      let z = old_z ~epsilon ~ios ~fills:tlb ~decode in
      let plain = old_plain ~epsilon ~ios ~misses:tlb in
      let sim =
        { Simulation.accesses = 0; ios; tlb_fills = tlb;
          decoding_misses = decode; failures_total = 0; max_bucket_load = 0 }
      in
      let machine ~tcache_hits ~ipis =
        { Machine.accesses = 0; tlb_hits = 0; tlb_misses = tlb + tcache_hits;
          tcache_hits; page_faults = 0; ios; shootdowns = 0; ipis }
      in
      let price = Cost.price ~epsilon in
      List.for_all
        (fun (name, expected, got) ->
          Float.equal expected got
          || QCheck.Test.fail_reportf "%s: expected %h, got %h" name expected
               got)
        [
          ("Simulation", z, Simulation.cost ~epsilon sim);
          ("Simulation C_TLB", epsilon *. float_of_int tlb,
           Simulation.c_tlb ~epsilon sim);
          ("Engine", z,
           price
             (Engine.ledger
                { Engine.empty_totals with
                  ios; tlb_fills = tlb; decoding_misses = decode }));
          ("Hybrid", z,
           price
             (Hybrid.ledger
                { Hybrid.accesses = 0; ios; chunk_faults = 0; tlb_fills = tlb;
                  decoding_misses = decode; coverage = 0 }));
          ("Thp", plain,
           price
             (Thp.ledger
                { Thp.accesses = 0; tlb_misses = tlb; ios; faults = 0;
                  promotions = 0; promotion_fill_ios = 0;
                  compaction_evictions = 0; huge_evictions = 0 }));
          ("Superpage", plain,
           price
             (Superpage.ledger
                { Superpage.accesses = 0; tlb_misses = tlb; ios; faults = 0;
                  reservations = 0; promotions = 0; preemptions = 0;
                  huge_evictions = 0 }));
          ("Machine, tier idle", plain,
           Machine.cost ~epsilon (machine ~tcache_hits:0 ~ipis:0));
          ("Machine with reach",
           old_reach ~epsilon ~tcache_epsilon ~ios ~misses ~hits,
           Cost.price ~tcache_epsilon ~epsilon
             (Machine.ledger (machine ~tcache_hits:hits ~ipis:0)));
          ("Machine with IPIs",
           old_smp ~epsilon ~tcache_epsilon ~ios ~misses ~hits ~ipis,
           Cost.price ~tcache_epsilon ~epsilon
             (Machine.ledger (machine ~tcache_hits:hits ~ipis)));
        ])

let test_rejects_bad_prices () =
  let l = { Cost.zero with ios = 1; tlb = 1 } in
  let bad =
    Invalid_argument
      "Cost.price: need 0 <= tcache_epsilon <= epsilon < infinity"
  in
  Alcotest.check_raises "negative epsilon" bad (fun () ->
      ignore (Cost.price ~epsilon:(-0.01) l));
  Alcotest.check_raises "NaN epsilon" bad (fun () ->
      ignore (Cost.price ~epsilon:Float.nan l));
  Alcotest.check_raises "infinite epsilon" bad (fun () ->
      ignore (Cost.price ~epsilon:Float.infinity l));
  Alcotest.check_raises "infinite epsilon and tcache_epsilon" bad (fun () ->
      ignore
        (Cost.price ~tcache_epsilon:Float.infinity ~epsilon:Float.infinity l));
  Alcotest.check_raises "negative tcache_epsilon" bad (fun () ->
      ignore (Cost.price ~tcache_epsilon:(-0.001) ~epsilon:0.01 l))

let () =
  Alcotest.run "atp.cost"
    [
      ("price", qsuite [ prop_linear; prop_matches_old_formulas ]);
      ( "bad prices",
        [ Alcotest.test_case "rejected" `Quick test_rejects_bad_prices ] );
    ]
