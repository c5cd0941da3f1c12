(* Quickstart: build a decoupled memory-management algorithm Z from two
   off-the-shelf paging policies and compare it, in the
   address-translation cost model, against physical huge pages.

   Run with:  dune exec examples/quickstart.exe *)

open Atp_core
open Atp_paging
open Atp_workloads
open Atp_util

let () =
  (* A machine with 16 Mi of RAM in 4 KiB pages and 64-bit TLB values. *)
  let ram_pages = 4096 in
  let epsilon = 0.01 in

  (* 1. Derive the scheme geometry from the hardware constants.  The
     default is the paper's main construction, Iceberg[2]. *)
  let params = Params.derive ~p:ram_pages ~w:64 () in
  Format.printf "@[<v>Derived parameters:@,%a@]@.@." Params.pp params;

  (* 2. A workload: 99.9%% of accesses in a 512-page hot set inside a
     64k-page virtual address space (the paper's bimodal stress test,
     scaled down). *)
  let rng = Prng.create ~seed:1 () in
  let workload =
    Bimodal.create ~hot_fraction:0.999 ~hot_pages:512
      ~virtual_pages:(1 lsl 16) rng
  in
  let warmup = Workload.generate workload 50_000 in
  let trace = Workload.generate workload 100_000 in

  (* 3. Pick X (TLB-optimising) and Y (IO-optimising) independently —
     the whole point of Theorem 4 — and combine them with the
     decoupling scheme. *)
  let x = Policy.instantiate (module Lru) ~capacity:64 () in
  let y =
    Policy.instantiate (module Lru) ~capacity:(Params.usable_pages params) ()
  in
  let z = Simulation.create ~params ~x ~y () in
  let report = Simulation.run ~warmup z trace in
  Format.printf "Decoupled scheme Z:@.  %a@.  C(Z) = %.1f  (C_TLB = %.1f, C_IO = %.1f)@.@."
    Simulation.pp_report report
    (Simulation.cost ~epsilon report)
    (Simulation.c_tlb ~epsilon report)
    (Simulation.c_io report);

  (* 4. The classical alternative: physically contiguous huge pages of
     size h, which trade IOs against TLB misses (Figure 1). *)
  Format.printf "Physical huge pages (same workload, same ε):@.";
  List.iter
    (fun h ->
      let machine =
        Atp_memsim.Machine.create
          { Atp_memsim.Machine.default_config with
            ram_pages; tlb_entries = 64; huge_size = h }
      in
      let c = Atp_memsim.Machine.run ~warmup machine trace in
      Format.printf "  h = %4d: %a  cost = %.1f@."
        h Atp_memsim.Machine.pp_counters c
        (Atp_memsim.Machine.cost ~epsilon c))
    [ 1; 8; 64; 512 ];
  Format.printf
    "@.Z matches the best of both columns: huge-page-level TLB misses \
     with base-page-level IOs.@."
