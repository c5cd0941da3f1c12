(* Property tests of the Simulation Theorem machinery: the mirroring
   invariants across arbitrary policy choices, the cost identity, and
   survival under injected paging failures. *)

open Atp_core
open Atp_paging
open Atp_util

let check = Alcotest.check

let policy_gen =
  (* All registered policies: each instance is seeded deterministically
     so the mirror instance reproduces the same decisions. *)
  QCheck.Gen.oneofl Registry.all

let arbitrary_policy =
  QCheck.make ~print:(fun (module P : Policy.S) -> P.name) policy_gen

let mk_instance (module P : Policy.S) ~capacity =
  Policy.instantiate (module P) ~rng:(Prng.create ~seed:77 ()) ~capacity ()

let prop_z_mirrors_any_policies =
  QCheck.Test.make ~count:40
    ~name:"Z mirrors X and Y for every registered policy pair"
    QCheck.(
      triple arbitrary_policy arbitrary_policy
        (list_of_size (Gen.return 400) (int_bound 700)))
    (fun (xp, yp, pages) ->
      let params = Params.derive ~p:2048 ~w:64 () in
      let budget = min 256 (Params.usable_pages params) in
      let trace = Array.of_list pages in
      let z =
        Simulation.create ~params
          ~x:(mk_instance xp ~capacity:32)
          ~y:(mk_instance yp ~capacity:budget)
          ()
      in
      Array.iter (Simulation.access z) trace;
      let r = Simulation.report z in
      let x_stats =
        Sim.run (mk_instance xp ~capacity:32)
          (Simulation.huge_trace ~h_max:params.Params.h_max trace)
      in
      let y_stats = Sim.run (mk_instance yp ~capacity:budget) trace in
      r.Simulation.tlb_fills = x_stats.Sim.misses
      && r.Simulation.ios = y_stats.Sim.misses
      && r.Simulation.accesses = Array.length trace)

let prop_cost_identity =
  QCheck.Test.make ~count:50
    ~name:"C(Z) = C_IO + eps * (tlb fills + decoding misses)"
    QCheck.(pair (float_range 0.0001 0.999) (list_of_size (Gen.return 300) (int_bound 999)))
    (fun (epsilon, pages) ->
      let params = Params.derive ~p:1024 ~w:64 () in
      let budget = Params.usable_pages params in
      let z =
        Simulation.create ~params
          ~x:(mk_instance (module Lru) ~capacity:16)
          ~y:(mk_instance (module Lru) ~capacity:budget)
          ()
      in
      List.iter (Simulation.access z) pages;
      let r = Simulation.report z in
      let lhs = Simulation.cost ~epsilon r in
      let rhs =
        Simulation.c_io r
        +. (epsilon
            *. float_of_int (r.Simulation.tlb_fills + r.Simulation.decoding_misses))
      in
      abs_float (lhs -. rhs) < 1e-9)

(* Failure injection: a sabotaged geometry (buckets of 2, one choice)
   makes paging failures routine; Z must keep answering every request,
   count the failures as decoding misses, and keep the mirroring
   invariants intact. *)
let test_z_survives_pathological_allocator () =
  let good = Params.derive ~scheme:Params.One_choice ~p:1024 ~w:64 () in
  let params =
    { good with Params.bucket_size = 2; buckets = 512; tau = 2; k = 1 }
  in
  let budget = Params.usable_pages params in
  let rng = Prng.create ~seed:5 () in
  let trace = Array.init 20_000 (fun _ -> Prng.int rng 2_000) in
  let x = mk_instance (module Lru) ~capacity:64 in
  let y = mk_instance (module Lru) ~capacity:budget in
  let z = Simulation.create ~params ~x ~y () in
  Array.iter (Simulation.access z) trace;
  let r = Simulation.report z in
  check Alcotest.bool "failures were injected" true
    (r.Simulation.failures_total > 0);
  check Alcotest.bool "accessed failures become decoding misses" true
    (r.Simulation.decoding_misses > 0);
  (* The mirrors still hold exactly. *)
  let y_stats = Sim.run (mk_instance (module Lru) ~capacity:budget) trace in
  check Alcotest.int "ios still = Y misses" y_stats.Sim.misses r.Simulation.ios;
  check Alcotest.int "every access serviced" 20_000 r.Simulation.accesses

let test_z_failures_recover () =
  (* After churn drains the overloaded buckets, new placements succeed
     again: failures are transient, not sticky. *)
  let good = Params.derive ~scheme:Params.One_choice ~p:256 ~w:64 () in
  let params =
    { good with Params.bucket_size = 4; buckets = 64; tau = 4; k = 1 }
  in
  let d = Decoupled.create params in
  (* Overfill: park pages until fallbacks appear. *)
  let page = ref 0 in
  while Alloc.failures_total (Decoupled.alloc d) = 0 do
    ignore (Decoupled.ram_insert d !page);
    incr page
  done;
  let live = Decoupled.active d in
  (* Evict everything. *)
  for v = 0 to !page - 1 do
    if Alloc.mem (Decoupled.alloc d) v then Decoupled.ram_evict d v
  done;
  check Alcotest.int "drained" 0 (Decoupled.active d);
  check Alcotest.bool "had failures" true (live > 0);
  (* A fresh insert now placeable without fallback. *)
  Decoupled.ram_insert d 999_999;
  match Alloc.location_of (Decoupled.alloc d) 999_999 with
  | Some (Alloc.Placed _) -> ()
  | Some (Alloc.Fallback _) | None -> Alcotest.fail "allocator did not recover"

let prop_hybrid_chunk1_equals_simulation =
  QCheck.Test.make ~count:30 ~name:"hybrid with chunk=1 = plain decoupling"
    QCheck.(list_of_size (Gen.return 300) (int_bound 800))
    (fun pages ->
      let ram = 2048 in
      let h = Hybrid.create ~seed:3 ~ram_pages:ram ~chunk:1 ~w:64 ~tlb_entries:32 () in
      List.iter (Hybrid.access h) pages;
      let hr = Hybrid.report h in
      let params = Params.derive ~p:ram ~w:64 () in
      let z =
        Simulation.create ~seed:3 ~params
          ~x:(Policy.instantiate (module Lru) ~capacity:32 ())
          ~y:(Policy.instantiate (module Lru) ~capacity:(Params.usable_pages params) ())
          ()
      in
      List.iter (Simulation.access z) pages;
      let zr = Simulation.report z in
      hr.Hybrid.ios = zr.Simulation.ios
      && hr.Hybrid.tlb_fills = zr.Simulation.tlb_fills
      && hr.Hybrid.coverage = params.Params.h_max)

let prop_hybrid_io_amplification_is_chunk =
  QCheck.Test.make ~count:30 ~name:"hybrid IOs = chunk * chunk faults"
    QCheck.(pair (int_range 0 2) (list_of_size (Gen.return 200) (int_bound 3000)))
    (fun (chunk_log, pages) ->
      let chunk = 1 lsl chunk_log in
      let h =
        Hybrid.create ~ram_pages:2048 ~chunk ~w:64 ~tlb_entries:32 ()
      in
      List.iter (Hybrid.access h) pages;
      let r = Hybrid.report h in
      r.Hybrid.ios = chunk * r.Hybrid.chunk_faults)

(* --- Multicore decoupling ------------------------------------------- *)

let test_smp_decoupled_basics () =
  let params = Params.derive ~p:2048 ~w:64 () in
  let y =
    Policy.instantiate (module Lru) ~capacity:(Params.usable_pages params) ()
  in
  let t =
    Smp_decoupled.create ~params ~cores:2 ~tlb_entries_per_core:16 ~y ()
  in
  check Alcotest.int "cores" 2 (Smp_decoupled.cores t);
  (* Same page from both cores: one IO (shared RAM), two TLB fills. *)
  Smp_decoupled.access t ~core:0 100;
  Smp_decoupled.access t ~core:1 100;
  let r = Smp_decoupled.report t in
  check Alcotest.int "one IO" 1 r.Smp_decoupled.ios;
  check Alcotest.int "two fills" 2 r.Smp_decoupled.tlb_fills;
  check Alcotest.int "no decode faults" 0 r.Smp_decoupled.decoding_misses

let test_smp_decoupled_psi_ipis () =
  (* A residency change to a huge page another core covers costs a
     remote update. *)
  let params = Params.derive ~p:2048 ~w:64 () in
  let h_max = params.Params.h_max in
  let y =
    Policy.instantiate (module Lru) ~capacity:(Params.usable_pages params) ()
  in
  let t =
    Smp_decoupled.create ~params ~cores:2 ~tlb_entries_per_core:16 ~y ()
  in
  (* Core 1 covers huge page 0 by touching its first page; then core 0
     faults a sibling page of the same huge page. *)
  Smp_decoupled.access t ~core:1 0;
  let before = (Smp_decoupled.report t).Smp_decoupled.psi_update_ipis in
  Smp_decoupled.access t ~core:0 1;
  let after = (Smp_decoupled.report t).Smp_decoupled.psi_update_ipis in
  check Alcotest.bool "remote holder notified" true (after > before);
  ignore h_max

let test_smp_decoupled_mirrors_y () =
  let params = Params.derive ~p:2048 ~w:64 () in
  let budget = min 128 (Params.usable_pages params) in
  let rng = Prng.create ~seed:21 () in
  let trace = Array.init 10_000 (fun _ -> Prng.int rng 1_000) in
  let y = Policy.instantiate (module Lru) ~capacity:budget () in
  let t =
    Smp_decoupled.create ~params ~cores:4 ~tlb_entries_per_core:32 ~y ()
  in
  let r = Smp_decoupled.run_shared t trace in
  let y_ref = Policy.instantiate (module Lru) ~capacity:budget () in
  let y_stats = Sim.run y_ref trace in
  check Alcotest.int "ios = shared Y misses" y_stats.Sim.misses
    r.Smp_decoupled.ios;
  check Alcotest.int "all accesses" 10_000 r.Smp_decoupled.accesses

let test_trace_replay_workload () =
  let open Atp_workloads in
  let w = Trace.replay [| 5; 6; 7 |] in
  check Alcotest.(array int) "loops" [| 5; 6; 7; 5; 6 |] (Workload.generate w 5)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "atp.theorem"
    [
      ( "simulation-properties",
        qsuite [ prop_z_mirrors_any_policies; prop_cost_identity ] );
      ( "failure-injection",
        [
          Alcotest.test_case "Z survives pathological allocator" `Quick
            test_z_survives_pathological_allocator;
          Alcotest.test_case "failures recover after churn" `Quick
            test_z_failures_recover;
        ] );
      ( "hybrid-properties",
        qsuite
          [ prop_hybrid_chunk1_equals_simulation; prop_hybrid_io_amplification_is_chunk ] );
      ( "smp-decoupled",
        [
          Alcotest.test_case "basics" `Quick test_smp_decoupled_basics;
          Alcotest.test_case "psi update ipis" `Quick test_smp_decoupled_psi_ipis;
          Alcotest.test_case "mirrors Y" `Quick test_smp_decoupled_mirrors_y;
          Alcotest.test_case "trace replay workload" `Quick test_trace_replay_workload;
        ] );
    ]
