(* Tests for the OS-level models: transparent huge pages (THP) and the
   multi-core TLB-shootdown machine (SMP). *)

open Atp_memsim
open Atp_workloads
open Atp_util

let check = Alcotest.check

let thp_config ~ram ~h =
  {
    Thp.default_config with
    ram_pages = ram;
    base_tlb_entries = 64;
    huge_tlb_entries = 8;
    huge_size = h;
  }

(* --- THP ------------------------------------------------------------- *)

let test_thp_base_faulting () =
  let t = Thp.create (thp_config ~ram:1024 ~h:16) in
  for v = 0 to 9 do Thp.access t v done;
  let c = Thp.counters t in
  check Alcotest.int "one IO per base fault" 10 c.Thp.ios;
  check Alcotest.int "faults" 10 c.Thp.faults;
  check Alcotest.int "no promotion below threshold" 0 c.Thp.promotions;
  check Alcotest.int "resident" 10 (Thp.resident_pages t)

let test_thp_promotes_dense_region () =
  let t = Thp.create (thp_config ~ram:1024 ~h:16) in
  (* Touch 15 of 16 pages: 15 >= ceil(0.9 * 16) = 15, so the region
     promotes, fetching the missing page. *)
  for v = 0 to 14 do Thp.access t v done;
  let c = Thp.counters t in
  check Alcotest.int "promoted" 1 c.Thp.promotions;
  check Alcotest.int "fill IO for the missing page" 1 c.Thp.promotion_fill_ios;
  check Alcotest.int "total IOs = 15 faults + 1 fill" 16 c.Thp.ios;
  check Alcotest.int "whole region resident" 16 (Thp.resident_pages t);
  check Alcotest.int "one huge region" 1 (Thp.promoted_regions t);
  (* Accesses across the region now hit the huge TLB entry. *)
  Thp.reset_counters t;
  for v = 0 to 15 do Thp.access t v done;
  let c = Thp.counters t in
  check Alcotest.int "no further IOs" 0 c.Thp.ios;
  check Alcotest.int "no TLB misses on promoted region" 0 c.Thp.tlb_misses

let test_thp_huge_eviction_is_indivisible () =
  (* RAM of exactly 2 huge regions; promote one, then flood with base
     pages from elsewhere: the promoted region eventually goes as one
     unit. *)
  let t = Thp.create (thp_config ~ram:32 ~h:16) in
  for v = 0 to 15 do Thp.access t v done;
  let c = Thp.counters t in
  check Alcotest.int "promoted" 1 c.Thp.promotions;
  (* 17+ distinct cold base pages force eviction pressure. *)
  for v = 1000 to 1031 do Thp.access t v done;
  let c = Thp.counters t in
  check Alcotest.bool "huge region evicted whole" true (c.Thp.huge_evictions >= 1);
  check Alcotest.bool "RAM never overcommitted" true
    (Thp.resident_pages t <= 32)

let test_thp_fragmentation_blocks_promotion () =
  (* Fill RAM with scattered base pages so no aligned block exists,
     with a zero compaction budget: promotion must fail gracefully and
     the pages stay resident as base pages. *)
  let cfg =
    { (thp_config ~ram:64 ~h:16) with Thp.max_compaction_evictions = 0 }
  in
  let t = Thp.create cfg in
  (* Occupy all frames with pages from many different regions (one per
     region, so nothing promotes). *)
  for r = 0 to 63 do Thp.access t (r * 16) done;
  check Alcotest.int "RAM full of singletons" 64 (Thp.resident_pages t);
  (* Now make one region dense: its promotion needs a contiguous block
     that a zero budget cannot create.  15 of its pages evict 15
     singletons (LRU), but frames are scattered. *)
  for v = 0 to 14 do Thp.access t v done;
  let c = Thp.counters t in
  check Alcotest.int "no promotion happened" 0 c.Thp.promotions;
  check Alcotest.bool "region pages still resident as base pages" true
    (Thp.resident_pages t <= 64)

let test_thp_vs_decoupled_shape () =
  (* The qualitative claim: on a bimodal workload THP pays promotion
     fills and huge-eviction refaults that the decoupled scheme never
     pays. *)
  let rng = Prng.create ~seed:5 () in
  let w =
    Bimodal.create ~hot_fraction:0.995 ~hot_pages:512 ~virtual_pages:(1 lsl 16)
      rng
  in
  let warmup = Workload.generate w 40_000 in
  let trace = Workload.generate w 40_000 in
  let t = Thp.create (thp_config ~ram:2048 ~h:64) in
  let c = Thp.run ~warmup t trace in
  check Alcotest.bool "THP promoted something during the run" true
    (c.Thp.promotions + (Thp.promoted_regions t) > 0);
  check Alcotest.bool "THP paid IOs" true (c.Thp.ios > 0)

(* --- SMP -------------------------------------------------------------- *)

let smp_config ~cores ~ram ~tlb =
  { Machine.default_config with cores; ram_pages = ram; tlb_entries = tlb }

let test_smp_basic_counts () =
  let t = Machine.create (smp_config ~cores:2 ~ram:64 ~tlb:16) in
  Machine.access t ~core:0 5;
  Machine.access t ~core:0 5;
  Machine.access t ~core:1 5;
  let c = Machine.counters t in
  check Alcotest.int "accesses" 3 c.Machine.accesses;
  (* Core 0 misses once; core 1 has its own TLB and misses too. *)
  check Alcotest.int "per-core TLB misses" 2 c.Machine.tlb_misses;
  check Alcotest.int "but only one IO (shared RAM)" 1 c.Machine.ios

let test_smp_shootdown_on_eviction () =
  (* RAM of 2 pages, both cores touch page 0; filling two more pages
     evicts 0 and must invalidate it on both cores. *)
  let t = Machine.create (smp_config ~cores:2 ~ram:2 ~tlb:16) in
  Machine.access t ~core:0 0;
  Machine.access t ~core:1 0;
  Machine.access t ~core:0 1;
  Machine.access t ~core:0 2;
  (* evicts page 0 *)
  let c = Machine.counters t in
  check Alcotest.bool "a shootdown happened" true (c.Machine.shootdowns >= 1);
  (* Core 0 initiated the eviction, so only core 1's invalidation is a
     remote IPI. *)
  check Alcotest.bool "the remote core received an IPI" true
    (c.Machine.ipis >= 1);
  (* Page 0 must re-fault on both cores. *)
  Machine.reset_counters t;
  Machine.access t ~core:0 0;
  Machine.access t ~core:1 0;
  let c = Machine.counters t in
  check Alcotest.int "both cores miss again" 2 c.Machine.tlb_misses

let test_smp_bad_core_rejected () =
  let t = Machine.create (smp_config ~cores:2 ~ram:16 ~tlb:4) in
  Alcotest.check_raises "core out of range"
    (Invalid_argument "Machine.access: bad core")
    (fun () -> Machine.access t ~core:2 0)

let test_smp_partitioned_less_shootdown () =
  (* Shared round-robin traffic invalidates across cores; partitioned
     traffic keeps each page on one core, so shootdown IPIs drop. *)
  (* TLBs must be large relative to RAM so that eviction victims are
     actually cached somewhere — otherwise no shootdowns arise. *)
  let rng = Prng.create ~seed:9 () in
  let trace = Array.init 60_000 (fun _ -> Prng.int rng 512) in
  let run f =
    let t = Machine.create (smp_config ~cores:4 ~ram:256 ~tlb:512) in
    f t trace
  in
  let shared = run (fun t tr -> Machine.run t tr) in
  let partitioned = run (fun t tr -> Machine.run_partitioned t tr) in
  check Alcotest.bool
    (Printf.sprintf "partitioned ipis (%d) < shared ipis (%d)"
       partitioned.Machine.ipis shared.Machine.ipis)
    true
    (partitioned.Machine.ipis < shared.Machine.ipis);
  (* The RAM policy only sees TLB-missing accesses, so IO counts may
     differ between sharding modes; both runs still do real paging. *)
  check Alcotest.bool "both modes page" true
    (shared.Machine.ios > 0 && partitioned.Machine.ios > 0)

let test_smp_cost_model () =
  let cost c =
    Atp_obs.Cost.price ~epsilon:0.01 ~tcache_epsilon:0.003 (Machine.ledger c)
  in
  let c =
    { Machine.accesses = 10; tlb_hits = 6; tlb_misses = 4; tcache_hits = 0;
      page_faults = 2; ios = 2; shootdowns = 1; ipis = 3 }
  in
  check (Alcotest.float 1e-9) "cost formula"
    (2.0 +. (0.01 *. 4.0) +. (0.01 *. 3.0))
    (cost c);
  (* Reach-extended: recovered misses are re-billed at tcache_ε. *)
  let c = { c with tcache_hits = 3 } in
  check (Alcotest.float 1e-9) "reach cost formula"
    (2.0 +. (0.01 *. 1.0) +. (0.003 *. 3.0) +. (0.01 *. 3.0))
    (cost c)

let test_smp_tcache_recovers_cross_core () =
  (* Core 0's TLB eviction deposits the translation into the shared
     store; core 1 (which never saw the page) recovers it cheaply. *)
  let cfg =
    { (smp_config ~cores:2 ~ram:64 ~tlb:2) with Machine.tcache_entries = 16 }
  in
  let t = Machine.create cfg in
  Machine.access t ~core:0 7;
  (* Overflow core 0's 2-entry TLB so page 7 falls into the store. *)
  Machine.access t ~core:0 8;
  Machine.access t ~core:0 9;
  Machine.reset_counters t;
  Machine.access t ~core:1 7;
  let c = Machine.counters t in
  check Alcotest.int "miss counted" 1 c.Machine.tlb_misses;
  check Alcotest.int "recovered from the shared store" 1 c.Machine.tcache_hits;
  check Alcotest.int "no IO needed" 0 c.Machine.ios

let test_smp_shootdown_invalidates_tcache () =
  (* The regression this tier must not reintroduce: a translation that
     only lives in the shared cache-resident store must still die on
     unmap, or a later access would be served a dead mapping. *)
  let cfg =
    { (smp_config ~cores:2 ~ram:2 ~tlb:2) with Machine.tcache_entries = 16 }
  in
  let t = Machine.create cfg in
  Machine.access t ~core:0 0;
  (* Push page 0 out of core 0's TLB into the shared store... *)
  Machine.access t ~core:0 1;
  Machine.access t ~core:0 2 (* evicts page 0 from RAM: shootdown *);
  let c = Machine.counters t in
  check Alcotest.bool "unmap of a store-only translation still counts"
    true (c.Machine.shootdowns >= 1);
  Machine.reset_counters t;
  (* Page 0 was unmapped; recovering it from the store now would be a
     use-after-unmap.  It must take the full path (IO) again. *)
  Machine.access t ~core:1 0;
  let c = Machine.counters t in
  check Alcotest.int "no stale recovery" 0 c.Machine.tcache_hits;
  check Alcotest.bool "page is re-fetched" true (c.Machine.ios >= 1)

let test_smp_tcache_disabled_identical () =
  (* tcache_entries = 0 must leave every counter exactly as before. *)
  let trace = Array.init 4000 (fun i -> (i * 769) land 1023) in
  let base = Machine.create (smp_config ~cores:4 ~ram:128 ~tlb:8) in
  let tiered0 =
    Machine.create
      { (smp_config ~cores:4 ~ram:128 ~tlb:8) with Machine.tcache_entries = 0 }
  in
  let a = Machine.run base trace in
  let b = Machine.run tiered0 trace in
  check Alcotest.bool "counters identical with the tier disabled" true (a = b)

let test_smp_rejects_zero_cores () =
  Alcotest.check_raises "no cores"
    (Invalid_argument "Machine.create: need at least one core")
    (fun () -> ignore (Machine.create (smp_config ~cores:0 ~ram:16 ~tlb:4)))

let test_smp_core_range () =
  List.iter
    (fun cores ->
      let t = Machine.create (smp_config ~cores ~ram:16 ~tlb:4) in
      Machine.access t ~core:(cores - 1) 0;
      List.iter
        (fun core ->
          Alcotest.check_raises
            (Printf.sprintf "core %d of %d" core cores)
            (Invalid_argument "Machine.access: bad core")
            (fun () -> Machine.access t ~core 0))
        [ cores; -1 ])
    [ 1; 4 ]

let test_smp_obs_sums_over_cores () =
  (* Every core's TLB adds into the one [tlb] scope, and only a
     multi-core machine registers shootdowns and IPIs. *)
  let run cores =
    let reg = Atp_obs.Registry.create () in
    let t =
      Machine.create ~obs:(Atp_obs.Scope.v reg)
        (smp_config ~cores ~ram:2 ~tlb:16)
    in
    (* On two cores, core 1's fault on page 2 evicts page 0, which
       both TLBs hold: one shootdown, one IPI to core 0. *)
    List.iteri (fun i page -> Machine.access t ~core:(i mod cores) page)
      [ 0; 0; 1; 2 ];
    (Machine.counters t, Atp_obs.Registry.counters reg)
  in
  let c, obs = run 2 in
  check Alcotest.int "one IPI" 1 c.Machine.ipis;
  List.iter
    (fun (name, value) ->
      check Alcotest.(option int) name (Some value) (List.assoc_opt name obs))
    [
      ("tlb.lookups", c.Machine.accesses);
      ("tlb.misses", c.tlb_misses);
      ("shootdowns", c.shootdowns);
      ("ipis", c.ipis);
    ];
  let _, obs = run 1 in
  check Alcotest.(list string) "one core registers neither" []
    (List.filter (fun n -> List.mem_assoc n obs) [ "shootdowns"; "ipis" ])

(* Counter identities that hold for every core count, huge-page size,
   store size and trace, round-robin or partitioned. *)
let prop_smp_invariants =
  QCheck.Test.make ~name:"multi-core counter invariants" ~count:200
    QCheck.(
      quad (Sizes.range 1 8) (int_bound 3)
        (pair (int_bound 32) (Sizes.range 1 16))
        (pair bool (list_of_size Gen.(int_range 0 600) (int_bound 511))))
    (fun (cores, log_h, (tcache_entries, tlb), (partitioned, refs)) ->
      let huge_size = 1 lsl log_h in
      let t =
        Machine.create
          { (smp_config ~cores ~ram:64 ~tlb) with huge_size; tcache_entries }
      in
      let run = if partitioned then Machine.run_partitioned else Machine.run in
      let c = run t (Array.of_list refs) in
      c.Machine.tlb_hits + c.tlb_misses = c.accesses
      && c.tcache_hits <= c.tlb_misses
      && c.ios = huge_size * c.page_faults
      && c.ipis <= (cores - 1) * c.shootdowns
      && (cores > 1 || c.ipis = 0))

let () =
  Alcotest.run "atp.os"
    [
      ( "thp",
        [
          Alcotest.test_case "base faulting" `Quick test_thp_base_faulting;
          Alcotest.test_case "promotes dense region" `Quick test_thp_promotes_dense_region;
          Alcotest.test_case "huge eviction indivisible" `Quick
            test_thp_huge_eviction_is_indivisible;
          Alcotest.test_case "fragmentation blocks promotion" `Quick
            test_thp_fragmentation_blocks_promotion;
          Alcotest.test_case "bimodal shape" `Quick test_thp_vs_decoupled_shape;
        ] );
      ( "smp",
        [
          Alcotest.test_case "basic counts" `Quick test_smp_basic_counts;
          Alcotest.test_case "shootdown on eviction" `Quick test_smp_shootdown_on_eviction;
          Alcotest.test_case "bad core" `Quick test_smp_bad_core_rejected;
          Alcotest.test_case "partitioned fewer IPIs" `Quick
            test_smp_partitioned_less_shootdown;
          Alcotest.test_case "cost model" `Quick test_smp_cost_model;
          Alcotest.test_case "tcache cross-core recovery" `Quick
            test_smp_tcache_recovers_cross_core;
          Alcotest.test_case "shootdown invalidates tcache" `Quick
            test_smp_shootdown_invalidates_tcache;
          Alcotest.test_case "tcache disabled identical" `Quick
            test_smp_tcache_disabled_identical;
          Alcotest.test_case "zero cores rejected" `Quick
            test_smp_rejects_zero_cores;
          Alcotest.test_case "core range" `Quick test_smp_core_range;
          Alcotest.test_case "obs sums over cores" `Quick
            test_smp_obs_sums_over_cores;
          QCheck_alcotest.to_alcotest prop_smp_invariants;
        ] );
    ]
