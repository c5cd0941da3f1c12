open Atp_memsim
open Atp_util

let check = Alcotest.check

(* --- Buddy allocator ------------------------------------------------ *)

let test_buddy_basic () =
  let b = Buddy.create ~frames:16 in
  check Alcotest.int "all free" 16 (Buddy.free_frames b);
  let a1 = Buddy.alloc b ~order:2 in
  check Alcotest.bool "got a block" true (a1 <> None);
  check Alcotest.int "used" 4 (Buddy.used_frames b);
  (match a1 with
   | Some base ->
     check Alcotest.int "aligned" 0 (base land 3);
     Buddy.free b ~base ~order:2
   | None -> ());
  check Alcotest.int "all free again" 16 (Buddy.free_frames b);
  check Alcotest.(option int) "coalesced back to one block" (Some 4)
    (Buddy.largest_free_order b)

let test_buddy_split_and_coalesce () =
  let b = Buddy.create ~frames:8 in
  let blocks = List.init 8 (fun _ -> Option.get (Buddy.alloc b ~order:0)) in
  check Alcotest.int "exhausted" 0 (Buddy.free_frames b);
  check Alcotest.(option int) "nothing left" None (Buddy.alloc b ~order:0);
  List.iter (fun base -> Buddy.free b ~base ~order:0) blocks;
  check Alcotest.(option int) "fully coalesced" (Some 3)
    (Buddy.largest_free_order b);
  Buddy.check_invariants b

let test_buddy_fragmentation () =
  (* Allocate all singles, free every other one: half the frames are
     free yet no order-1 block exists. *)
  let b = Buddy.create ~frames:8 in
  let blocks = Array.init 8 (fun _ -> Option.get (Buddy.alloc b ~order:0)) in
  Array.sort compare blocks;
  for i = 0 to 7 do
    if i mod 2 = 0 then Buddy.free b ~base:blocks.(i) ~order:0
  done;
  check Alcotest.int "half free" 4 (Buddy.free_frames b);
  check Alcotest.(option int) "but fragmented" None (Buddy.alloc b ~order:1);
  Buddy.check_invariants b

let test_buddy_double_free_rejected () =
  let b = Buddy.create ~frames:4 in
  let base = Option.get (Buddy.alloc b ~order:1) in
  Buddy.free b ~base ~order:1;
  Alcotest.check_raises "double free"
    (Invalid_argument "Buddy.free: block not allocated") (fun () ->
      Buddy.free b ~base ~order:1)

let test_buddy_order_mismatch_rejected () =
  let b = Buddy.create ~frames:4 in
  let base = Option.get (Buddy.alloc b ~order:1) in
  Alcotest.check_raises "order mismatch"
    (Invalid_argument "Buddy.free: order mismatch") (fun () ->
      Buddy.free b ~base ~order:0)

let test_buddy_non_power_of_two () =
  let b = Buddy.create ~frames:12 in
  check Alcotest.int "all frames tracked" 12 (Buddy.free_frames b);
  (* An order-3 block fits in [0,8). *)
  check Alcotest.bool "order 3 available" true (Buddy.alloc b ~order:3 <> None);
  (* The remaining 4 frames form an order-2 block. *)
  check Alcotest.bool "order 2 available" true (Buddy.alloc b ~order:2 <> None);
  check Alcotest.int "exhausted" 0 (Buddy.free_frames b);
  Buddy.check_invariants b

let prop_buddy_random_ops =
  QCheck.Test.make ~name:"buddy invariants under random alloc/free" ~count:60
    QCheck.(list (pair (int_bound 3) bool))
    (fun ops ->
      let b = Buddy.create ~frames:64 in
      let live = ref [] in
      List.iter
        (fun (order, do_alloc) ->
          if do_alloc then begin
            match Buddy.alloc b ~order with
            | Some base -> live := (base, order) :: !live
            | None -> ()
          end
          else begin
            match !live with
            | (base, order) :: rest ->
              Buddy.free b ~base ~order;
              live := rest
            | [] -> ()
          end)
        ops;
      Buddy.check_invariants b;
      true)

(* --- Machine -------------------------------------------------------- *)

let config ~ram ~tlb ~h =
  { Machine.default_config with ram_pages = ram; tlb_entries = tlb; huge_size = h }

let test_machine_rejects_bad_huge_size () =
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Machine.create: huge_size must be a power of two")
    (fun () -> ignore (Machine.create (config ~ram:64 ~tlb:4 ~h:3)))

let test_machine_counts_accesses () =
  let m = Machine.create (config ~ram:64 ~tlb:4 ~h:1) in
  for v = 0 to 9 do Machine.access m ~core:0 v done;
  let c = Machine.counters m in
  check Alcotest.int "accesses" 10 c.Machine.accesses;
  check Alcotest.int "all cold misses" 10 c.Machine.tlb_misses;
  check Alcotest.int "all faults" 10 c.Machine.page_faults;
  check Alcotest.int "one IO each" 10 c.Machine.ios

let test_machine_hits_are_free () =
  let m = Machine.create (config ~ram:64 ~tlb:4 ~h:1) in
  Machine.access m ~core:0 5;
  Machine.access m ~core:0 5;
  let c = Machine.counters m in
  check Alcotest.int "one miss" 1 c.Machine.tlb_misses;
  check Alcotest.int "one hit" 1 c.Machine.tlb_hits;
  check Alcotest.int "one IO" 1 c.Machine.ios

let test_machine_page_fault_amplification () =
  (* With h = 8, touching one page faults the whole huge page: 8 IOs. *)
  let m = Machine.create (config ~ram:64 ~tlb:4 ~h:8) in
  Machine.access m ~core:0 0;
  let c = Machine.counters m in
  check Alcotest.int "8 IOs for one access" 8 c.Machine.ios;
  (* The 7 sibling pages are now resident and TLB-covered: free. *)
  for v = 1 to 7 do Machine.access m ~core:0 v done;
  let c = Machine.counters m in
  check Alcotest.int "no further IOs" 8 c.Machine.ios;
  check Alcotest.int "no further TLB misses" 1 c.Machine.tlb_misses

let test_machine_ram_pressure_evicts () =
  (* RAM of 4 pages, h = 1: touching 5 distinct pages must re-fault. *)
  let m = Machine.create (config ~ram:4 ~tlb:64 ~h:1) in
  for v = 0 to 4 do Machine.access m ~core:0 v done;
  Machine.access m ~core:0 0;
  (* 0 was evicted by LRU when 4 came in. *)
  let c = Machine.counters m in
  check Alcotest.int "6 faults" 6 c.Machine.page_faults;
  check Alcotest.int "resident bounded" 4 (Machine.resident_pages m)

let test_machine_tlb_shootdown_on_eviction () =
  (* TLB large, RAM tiny: a page evicted from RAM must not hit in the
     TLB afterwards (the entry is shot down). *)
  let m = Machine.create (config ~ram:2 ~tlb:64 ~h:1) in
  Machine.access m ~core:0 0;
  Machine.access m ~core:0 1;
  Machine.access m ~core:0 2;
  (* evicts 0 *)
  Machine.access m ~core:0 0;
  let c = Machine.counters m in
  (* 4 misses: 0, 1, 2, 0 again. *)
  check Alcotest.int "four TLB misses" 4 c.Machine.tlb_misses;
  check Alcotest.int "four IOs" 4 c.Machine.ios

let test_machine_warmup_separation () =
  let m = Machine.create (config ~ram:64 ~tlb:16 ~h:1) in
  let warmup = Array.init 32 (fun i -> i) in
  let measured = Array.init 8 (fun i -> i) in
  let c = Machine.run ~warmup m measured in
  check Alcotest.int "counters cover only measurement" 8 c.Machine.accesses;
  (* Pages 0..7 got evicted from the 16-entry TLB during warmup of 32
     pages, so they miss again, but they are RAM-resident: no IOs. *)
  check Alcotest.int "no IOs after warmup" 0 c.Machine.ios

let test_machine_cost_model () =
  let c =
    { Machine.accesses = 100; tlb_hits = 90; tlb_misses = 10; tcache_hits = 0;
      page_faults = 2; ios = 4; shootdowns = 0; ipis = 0 }
  in
  check (Alcotest.float 1e-9) "cost" (4.0 +. 0.5) (Machine.cost ~epsilon:0.05 c);
  (* Reach-extended model: with no tcache hits it degenerates to the
     plain model; with hits, each one is re-billed at tcache_ε. *)
  let reach ?(tcache_epsilon = 0.01) c =
    Atp_obs.Cost.price ~epsilon:0.05 ~tcache_epsilon (Machine.ledger c)
  in
  check (Alcotest.float 1e-9) "reach cost, tier idle" (4.0 +. 0.5) (reach c);
  let c = { c with tcache_hits = 6 } in
  check (Alcotest.float 1e-9) "reach cost"
    (4.0 +. (0.05 *. 4.0) +. (0.01 *. 6.0))
    (reach c);
  Alcotest.check_raises "tcache_epsilon above epsilon rejected"
    (Invalid_argument "Cost.price: need 0 <= tcache_epsilon <= epsilon < infinity")
    (fun () -> ignore (reach ~tcache_epsilon:0.06 c))

let test_machine_tcache_recovers_tlb_victims () =
  (* A TLB eviction deposits the translation into the victim store; the
     next miss on that page recovers it without a fault. *)
  let m =
    Machine.create { (config ~ram:64 ~tlb:2 ~h:1) with tcache_entries = 16 }
  in
  Machine.access m ~core:0 0;
  (* Overflow the 2-entry TLB so page 0 falls into the store. *)
  Machine.access m ~core:0 1;
  Machine.access m ~core:0 2;
  Machine.reset_counters m;
  Machine.access m ~core:0 0;
  let c = Machine.counters m in
  check Alcotest.int "miss counted" 1 c.Machine.tlb_misses;
  check Alcotest.int "recovered from the store" 1 c.Machine.tcache_hits;
  check Alcotest.int "no fault" 0 c.Machine.page_faults

let test_machine_eviction_invalidates_tcache () =
  (* A page evicted from RAM must disappear from the victim store too,
     not just from the TLB — otherwise a later access would be served a
     dead mapping without re-faulting. *)
  let m =
    Machine.create { (config ~ram:2 ~tlb:2 ~h:1) with tcache_entries = 16 }
  in
  Machine.access m ~core:0 0;
  (* Push page 0 out of the TLB into the store... *)
  Machine.access m ~core:0 1;
  (* ...then out of RAM entirely. *)
  Machine.access m ~core:0 2;
  Machine.reset_counters m;
  Machine.access m ~core:0 0;
  let c = Machine.counters m in
  check Alcotest.int "no stale recovery" 0 c.Machine.tcache_hits;
  check Alcotest.int "page is re-faulted" 1 c.Machine.page_faults

let test_machine_tcache_disabled_identical () =
  (* tcache_entries = 0 must leave counters and the obs snapshot
     byte-identical to the pre-tier machine. *)
  let trace = Array.init 5000 (fun i -> (i * 353) land 2047) in
  let run cfg =
    let reg = Atp_obs.Registry.create () in
    let m = Machine.create ~obs:(Atp_obs.Scope.v ~prefix:"machine" reg) cfg in
    let c = Machine.run m trace in
    (c, Atp_obs.Registry.snapshot_string reg)
  in
  let base = config ~ram:256 ~tlb:8 ~h:1 in
  let a, snap_a = run base in
  let b, snap_b = run { base with tcache_entries = 0 } in
  check Alcotest.bool "counters identical" true (a = b);
  check Alcotest.string "obs snapshot identical" snap_a snap_b

let test_machine_huge_vs_small_tradeoff () =
  (* The qualitative Figure 1 effect on a small bimodal workload:
     larger huge pages => fewer TLB misses, more IOs. *)
  let rng = Prng.create ~seed:3 () in
  let hot = 256 in
  let virtual_pages = 1 lsl 14 in
  let trace =
    Array.init 20_000 (fun _ ->
        if Prng.float rng < 0.99 then Prng.int rng hot
        else Prng.int rng virtual_pages)
  in
  let run h =
    let m = Machine.create (config ~ram:2048 ~tlb:16 ~h) in
    Machine.run m trace
  in
  let small = run 1 and big = run 64 in
  check Alcotest.bool "huge pages reduce TLB misses" true
    (big.Machine.tlb_misses < small.Machine.tlb_misses);
  check Alcotest.bool "huge pages amplify IOs" true
    (big.Machine.ios > small.Machine.ios)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "atp.memsim"
    [
      ( "buddy",
        Alcotest.test_case "basic" `Quick test_buddy_basic
        :: Alcotest.test_case "split/coalesce" `Quick test_buddy_split_and_coalesce
        :: Alcotest.test_case "fragmentation" `Quick test_buddy_fragmentation
        :: Alcotest.test_case "double free" `Quick test_buddy_double_free_rejected
        :: Alcotest.test_case "order mismatch" `Quick test_buddy_order_mismatch_rejected
        :: Alcotest.test_case "non power of two" `Quick test_buddy_non_power_of_two
        :: qsuite [ prop_buddy_random_ops ] );
      ( "machine",
        [
          Alcotest.test_case "bad huge size" `Quick test_machine_rejects_bad_huge_size;
          Alcotest.test_case "counts" `Quick test_machine_counts_accesses;
          Alcotest.test_case "hits free" `Quick test_machine_hits_are_free;
          Alcotest.test_case "amplification" `Quick test_machine_page_fault_amplification;
          Alcotest.test_case "ram pressure" `Quick test_machine_ram_pressure_evicts;
          Alcotest.test_case "shootdown" `Quick test_machine_tlb_shootdown_on_eviction;
          Alcotest.test_case "warmup" `Quick test_machine_warmup_separation;
          Alcotest.test_case "cost model" `Quick test_machine_cost_model;
          Alcotest.test_case "tcache recovers victims" `Quick
            test_machine_tcache_recovers_tlb_victims;
          Alcotest.test_case "eviction invalidates tcache" `Quick
            test_machine_eviction_invalidates_tcache;
          Alcotest.test_case "tcache disabled identical" `Quick
            test_machine_tcache_disabled_identical;
          Alcotest.test_case "figure-1 shape" `Quick test_machine_huge_vs_small_tradeoff;
        ] );
    ]
