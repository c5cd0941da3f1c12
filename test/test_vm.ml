(* Tests for the full virtual-memory manager (Vmm), reservation-based
   superpages, and the parallel map utility. *)

open Atp_memsim
open Atp_util

let check = Alcotest.check

let vmm_config ~ram ~tlb =
  { Vmm.default_config with ram_pages = ram; tlb_entries = tlb }

(* --- Vmm --------------------------------------------------------------- *)

let test_vmm_segfault () =
  let vm = Vmm.create (vmm_config ~ram:64 ~tlb:16) in
  Vmm.mmap vm ~start:100 ~pages:10;
  Vmm.read vm 105;
  Alcotest.check_raises "below region" (Vmm.Segfault 99) (fun () ->
      Vmm.read vm 99);
  Alcotest.check_raises "above region" (Vmm.Segfault 110) (fun () ->
      Vmm.read vm 110)

let test_vmm_mmap_overlap_rejected () =
  let vm = Vmm.create (vmm_config ~ram:64 ~tlb:16) in
  Vmm.mmap vm ~start:0 ~pages:10;
  Alcotest.check_raises "overlap" (Invalid_argument "Vmm.mmap: region overlap")
    (fun () -> Vmm.mmap vm ~start:5 ~pages:10)

let test_vmm_demand_paging () =
  let vm = Vmm.create (vmm_config ~ram:64 ~tlb:16) in
  Vmm.mmap vm ~start:0 ~pages:32;
  for v = 0 to 31 do Vmm.read vm v done;
  let c = Vmm.counters vm in
  check Alcotest.int "first touches are minor faults" 32 c.Vmm.minor_faults;
  check Alcotest.int "no swap-ins yet" 0 c.Vmm.major_faults;
  check Alcotest.int "all resident" 32 (Vmm.resident_pages vm);
  (* Re-reads hit the TLB (16 entries) or at worst re-walk. *)
  Vmm.reset_counters vm;
  for v = 0 to 15 do Vmm.read vm v done;
  for v = 0 to 15 do Vmm.read vm v done;
  let c = Vmm.counters vm in
  check Alcotest.int "no faults on resident pages"
    0 (c.Vmm.minor_faults + c.Vmm.major_faults)

let test_vmm_swap_cycle () =
  (* RAM of 8 frames, working set of 16 pages: pages get evicted and
     must come back as major faults. *)
  let vm = Vmm.create (vmm_config ~ram:8 ~tlb:4) in
  Vmm.mmap vm ~start:0 ~pages:16;
  for v = 0 to 15 do Vmm.read vm v done;
  let c = Vmm.counters vm in
  check Alcotest.int "16 minor faults" 16 c.Vmm.minor_faults;
  check Alcotest.bool "evictions happened" true (c.Vmm.evictions >= 8);
  check Alcotest.bool "RAM bounded" true (Vmm.resident_pages vm <= 8);
  (* Touch an evicted page: a major fault with swap-in cost. *)
  Vmm.reset_counters vm;
  Vmm.read vm 0;
  let c = Vmm.counters vm in
  check Alcotest.int "swap-in" 1 c.Vmm.major_faults;
  check Alcotest.bool "swap-in cost counted" true
    (c.Vmm.total_cycles >= Vmm.default_config.Vmm.io_cycles)

let test_vmm_dirty_writeback () =
  let vm = Vmm.create (vmm_config ~ram:4 ~tlb:2) in
  Vmm.mmap vm ~start:0 ~pages:12;
  (* Write 4 pages (dirty), then stream 8 clean pages to evict them. *)
  for v = 0 to 3 do Vmm.write vm v done;
  for v = 4 to 11 do Vmm.read vm v done;
  let c = Vmm.counters vm in
  check Alcotest.bool "dirty evictions forced writebacks" true
    (c.Vmm.writebacks >= 1);
  check Alcotest.bool "writebacks bounded by dirty pages" true
    (c.Vmm.writebacks <= 4)

let test_vmm_clock_prefers_cold_pages () =
  (* 3 frames: keep two pages hot, stream others; the hot pages should
     survive (their accessed bits give second chances). *)
  let vm = Vmm.create (vmm_config ~ram:3 ~tlb:2) in
  Vmm.mmap vm ~start:0 ~pages:64;
  Vmm.read vm 0;
  Vmm.read vm 1;
  Vmm.reset_counters vm;
  for v = 2 to 33 do
    Vmm.read vm 0;
    Vmm.read vm 1;
    Vmm.read vm v
  done;
  let c = Vmm.counters vm in
  (* Pages 0 and 1 re-accessed 32 times each: if CLOCK kept them, no
     major faults for them.  Allow a handful of unlucky evictions. *)
  check Alcotest.bool
    (Printf.sprintf "hot pages mostly survive (majors = %d)" c.Vmm.major_faults)
    true
    (c.Vmm.major_faults < 10)

let test_vmm_munmap () =
  let vm = Vmm.create (vmm_config ~ram:16 ~tlb:8) in
  Vmm.mmap vm ~start:0 ~pages:8;
  for v = 0 to 7 do Vmm.write vm v done;
  Vmm.munmap vm ~start:0 ~pages:8;
  check Alcotest.int "nothing resident" 0 (Vmm.resident_pages vm);
  check Alcotest.bool "unmapped" false (Vmm.is_mapped vm 3);
  Alcotest.check_raises "poked after munmap" (Vmm.Segfault 3) (fun () ->
      Vmm.read vm 3);
  (* Remapping the region gives fresh zero pages (minor, not major). *)
  Vmm.mmap vm ~start:0 ~pages:8;
  Vmm.reset_counters vm;
  Vmm.read vm 3;
  let c = Vmm.counters vm in
  check Alcotest.int "fresh page, no swap-in" 0 c.Vmm.major_faults;
  check Alcotest.int "minor fault" 1 c.Vmm.minor_faults

(* Regression for the full-flush bug: one single-page munmap used to
   flush the whole PWC, making every later walk cold.  With per-entry
   (INVLPG-style) invalidation, a working set in an unrelated part of
   the address space keeps its walk-cache hit rate. *)
let test_vmm_munmap_keeps_unrelated_pwc () =
  let vm = Vmm.create (vmm_config ~ram:256 ~tlb:2) in
  (* Working set: pages 0..63, far from the victim region (no shared
     interior prefix at any level).  The tiny TLB forces every access
     through the walker. *)
  Vmm.mmap vm ~start:0 ~pages:64;
  let far = 1 lsl 27 in
  Vmm.mmap vm ~start:far ~pages:1;
  for v = 0 to 63 do Vmm.read vm v done;
  Vmm.read vm far;
  (* Warm pass to establish the steady-state walk cost. *)
  let warm_accesses before after =
    after.Walker.total_memory_accesses - before.Walker.total_memory_accesses
  in
  let s0 = Vmm.walker_stats vm in
  for v = 0 to 63 do Vmm.read vm v done;
  let s1 = Vmm.walker_stats vm in
  let warm = warm_accesses s0 s1 in
  Vmm.munmap vm ~start:far ~pages:1;
  let s2 = Vmm.walker_stats vm in
  for v = 0 to 63 do Vmm.read vm v done;
  let s3 = Vmm.walker_stats vm in
  let after_unmap = warm_accesses s2 s3 in
  check Alcotest.int "unmap of an unrelated page costs no warmth" warm
    after_unmap

let test_vmm_bulk_munmap_still_flushes () =
  (* A bulk unmap (> 32 pages) takes the one full flush: the next walk
     anywhere is cold. *)
  let vm = Vmm.create (vmm_config ~ram:512 ~tlb:2) in
  Vmm.mmap vm ~start:0 ~pages:8;
  Vmm.mmap vm ~start:4096 ~pages:64;
  for v = 0 to 7 do Vmm.read vm v done;
  for v = 4096 to 4159 do Vmm.read vm v done;
  Vmm.munmap vm ~start:4096 ~pages:64;
  let s0 = Vmm.walker_stats vm in
  Vmm.read vm 0;
  let s1 = Vmm.walker_stats vm in
  check Alcotest.int "cold walk after bulk flush" Page_table.levels
    (s1.Walker.total_memory_accesses - s0.Walker.total_memory_accesses)

(* Cycle conservation: every cycle the Vmm bills is attributable to
   exactly one of TLB hits, page walks, or IO — across paging
   pressure, writebacks, and the walker tier on or off. *)
let prop_vmm_cycle_conservation =
  QCheck.Test.make ~count:40 ~name:"Vmm cycles = tlb + walk + io"
    QCheck.(
      triple (Sizes.range 16 128)
        (list_of_size Gen.(int_range 1 400) (pair (int_bound 255) bool))
        (oneofl [ 0; 8 ]))
    (fun (ram, ops, tcache_entries) ->
      let cfg =
        { Vmm.default_config with
          ram_pages = ram;
          tlb_entries = 8;
          walker = { Walker.default_config with tcache_entries };
        }
      in
      let vm = Vmm.create cfg in
      Vmm.mmap vm ~start:0 ~pages:256;
      List.iter
        (fun (v, w) -> if w then Vmm.write vm v else Vmm.read vm v)
        ops;
      let c = Vmm.counters vm in
      let expected =
        (c.Vmm.tlb_hits * cfg.Vmm.tlb_hit_cycles)
        + c.Vmm.walk_cycles
        + (cfg.Vmm.io_cycles * (c.Vmm.major_faults + c.Vmm.writebacks))
      in
      if expected <> c.Vmm.total_cycles then
        QCheck.Test.fail_reportf "expected %d cycles, billed %d" expected
          c.Vmm.total_cycles;
      true)

let test_vmm_translation_fraction () =
  (* Under swap pressure, IO cycles share the bill with translation. *)
  let vm = Vmm.create (vmm_config ~ram:256 ~tlb:8) in
  Vmm.mmap vm ~start:0 ~pages:512;
  let rng = Prng.create ~seed:3 () in
  for _ = 1 to 5_000 do
    Vmm.read vm (Prng.int rng 512)
  done;
  let f = Vmm.translation_fraction vm in
  check Alcotest.bool
    (Printf.sprintf "translation fraction in (0,1) (%.3f)" f)
    true
    (f > 0.0 && f < 1.0);
  (* With everything resident and a tiny TLB, translation is the whole
     bill — the regime where the paper reports up to 83%% of execution
     time going to address translation. *)
  let vm = Vmm.create (vmm_config ~ram:1024 ~tlb:8) in
  Vmm.mmap vm ~start:0 ~pages:512;
  for v = 0 to 511 do Vmm.read vm v done;
  Vmm.reset_counters vm;
  for _ = 1 to 5_000 do
    Vmm.read vm (Prng.int rng 512)
  done;
  check Alcotest.bool "translation dominates when resident" true
    (Vmm.translation_fraction vm > 0.9)

(* --- Superpage ----------------------------------------------------------- *)

let sp_config ~ram ~h =
  {
    Superpage.ram_pages = ram;
    base_tlb_entries = 64;
    huge_tlb_entries = 8;
    huge_size = h;
  }

let test_superpage_reservation_and_promotion () =
  let t = Superpage.create (sp_config ~ram:256 ~h:16) in
  Superpage.access t 0;
  let c = Superpage.counters t in
  check Alcotest.int "one reservation" 1 c.Superpage.reservations;
  check Alcotest.int "15 frames reserved unused" 15
    (Superpage.reserved_unused_frames t);
  (* Populate the rest: free promotion, no extra IO beyond the 16
     fills. *)
  for v = 1 to 15 do Superpage.access t v done;
  let c = Superpage.counters t in
  check Alcotest.int "promoted" 1 c.Superpage.promotions;
  check Alcotest.int "exactly 16 IOs" 16 c.Superpage.ios;
  check Alcotest.int "no waste once promoted" 0
    (Superpage.reserved_unused_frames t);
  check Alcotest.int "one superpage" 1 (Superpage.promoted_regions t)

let test_superpage_preemption_under_pressure () =
  (* RAM of 4 reservations' worth; touch one page in each of 8 regions:
     reservations must be preempted, not crash, and the touched pages
     stay resident. *)
  let t = Superpage.create (sp_config ~ram:64 ~h:16) in
  for r = 0 to 7 do
    Superpage.access t (r * 16)
  done;
  let c = Superpage.counters t in
  check Alcotest.bool "preemptions happened" true (c.Superpage.preemptions >= 4);
  check Alcotest.int "every touched page resident" 8 (Superpage.resident_pages t);
  (* All 8 pages are still translatable without further IO. *)
  Superpage.reset_counters t;
  for r = 0 to 7 do
    Superpage.access t (r * 16)
  done;
  let c = Superpage.counters t in
  check Alcotest.int "no refault IOs" 0 c.Superpage.ios

let test_superpage_no_copy_promotion_contiguity () =
  (* Unlike THP, promotion never moves data: IOs equal fills exactly
     even across many promotions. *)
  let t = Superpage.create (sp_config ~ram:1024 ~h:16) in
  for v = 0 to (16 * 8) - 1 do Superpage.access t v done;
  let c = Superpage.counters t in
  check Alcotest.int "8 promotions" 8 c.Superpage.promotions;
  check Alcotest.int "IOs = populated pages" (16 * 8) c.Superpage.ios

let test_superpage_huge_eviction () =
  let t = Superpage.create (sp_config ~ram:32 ~h:16) in
  (* Promote one region, then push 17+ base pages from regions that
     cannot reserve (RAM too tight): the superpage is evicted whole. *)
  for v = 0 to 15 do Superpage.access t v done;
  for r = 10 to 40 do Superpage.access t (r * 16) done;
  let c = Superpage.counters t in
  check Alcotest.bool "superpage evicted whole" true (c.Superpage.huge_evictions >= 1);
  check Alcotest.bool "RAM bounded" true (Superpage.resident_pages t <= 32)

(* --- Parallel -------------------------------------------------------------- *)

let test_parallel_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  check Alcotest.(list int) "1 domain" (List.map f xs) (Parallel.map ~domains:1 f xs);
  check Alcotest.(list int) "4 domains" (List.map f xs) (Parallel.map ~domains:4 f xs);
  check Alcotest.(list int) "default" (List.map f xs) (Parallel.map f xs)

let test_parallel_empty_and_small () =
  check Alcotest.(list int) "empty" [] (Parallel.map ~domains:4 Fun.id []);
  check Alcotest.(list int) "singleton" [ 7 ] (Parallel.map ~domains:4 Fun.id [ 7 ])

let test_parallel_propagates_exception () =
  check Alcotest.bool "raises" true
    (try
       ignore (Parallel.map ~domains:3 (fun x -> if x = 5 then failwith "boom" else x)
                 (List.init 10 Fun.id));
       false
     with Failure m -> m = "boom")

let test_parallel_order_preserved_under_load () =
  let xs = List.init 1_000 Fun.id in
  let f x =
    (* Uneven work so domains interleave. *)
    let acc = ref 0 in
    for i = 0 to x mod 97 do acc := !acc + i done;
    x + (!acc * 0)
  in
  check Alcotest.(list int) "order" xs (Parallel.map ~domains:4 f xs)

let test_parallel_rejects_bad_domains () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Parallel.map: need at least one domain") (fun () ->
      ignore (Parallel.map ~domains:0 Fun.id [ 1 ]))

let () =
  Alcotest.run "atp.vm"
    [
      ( "vmm",
        [
          Alcotest.test_case "segfault" `Quick test_vmm_segfault;
          Alcotest.test_case "mmap overlap" `Quick test_vmm_mmap_overlap_rejected;
          Alcotest.test_case "demand paging" `Quick test_vmm_demand_paging;
          Alcotest.test_case "swap cycle" `Quick test_vmm_swap_cycle;
          Alcotest.test_case "dirty writeback" `Quick test_vmm_dirty_writeback;
          Alcotest.test_case "clock keeps hot pages" `Quick test_vmm_clock_prefers_cold_pages;
          Alcotest.test_case "munmap" `Quick test_vmm_munmap;
          Alcotest.test_case "munmap keeps unrelated PWC" `Quick
            test_vmm_munmap_keeps_unrelated_pwc;
          Alcotest.test_case "bulk munmap flushes" `Quick
            test_vmm_bulk_munmap_still_flushes;
          Alcotest.test_case "translation fraction" `Quick test_vmm_translation_fraction;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_vmm_cycle_conservation ]
      );
      ( "superpage",
        [
          Alcotest.test_case "reserve + promote" `Quick
            test_superpage_reservation_and_promotion;
          Alcotest.test_case "preemption" `Quick test_superpage_preemption_under_pressure;
          Alcotest.test_case "no-copy promotion" `Quick
            test_superpage_no_copy_promotion_contiguity;
          Alcotest.test_case "huge eviction" `Quick test_superpage_huge_eviction;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "empty/small" `Quick test_parallel_empty_and_small;
          Alcotest.test_case "exceptions" `Quick test_parallel_propagates_exception;
          Alcotest.test_case "order under load" `Quick test_parallel_order_preserved_under_load;
          Alcotest.test_case "bad domains" `Quick test_parallel_rejects_bad_domains;
        ] );
    ]
