(* Graph analytics under memory pressure: the paper's motivating
   workload class (irregular access, hard to prefetch, TLB-hostile).

   Reproduces the Figure 1b/1c story on two graph workloads — a
   Pareto random walk and a graph500-style BFS — then shows what the
   decoupled scheme does on the same traces.

   Run with:  dune exec examples/graph_analytics.exe *)

open Atp_core
open Atp_memsim
open Atp_paging
open Atp_workloads
open Atp_util

let epsilon = 0.01

let tlb_entries = 256

let sweep ~name ~ram ~mk_workload =
  Format.printf "== %s (RAM %d pages, TLB %d entries, ε = %g) ==@." name ram
    tlb_entries epsilon;
  Format.printf "%8s %12s %12s %12s@." "h" "IOs" "TLB misses" "cost";
  List.iter
    (fun h ->
      let workload = mk_workload () in
      let warmup = Workload.generate workload 100_000 in
      let trace = Workload.generate workload 100_000 in
      let machine =
        Machine.create
          { Machine.default_config with
            ram_pages = ram; tlb_entries; huge_size = h }
      in
      let c = Machine.run ~warmup machine trace in
      Format.printf "%8d %12d %12d %12.1f@." h c.Machine.ios c.Machine.tlb_misses
        (Machine.cost ~epsilon c))
    [ 1; 4; 16; 64; 256 ];
  (* The decoupled scheme on the same trace. *)
  let params = Params.derive ~p:ram ~w:64 () in
  let workload = mk_workload () in
  let warmup = Workload.generate workload 100_000 in
  let trace = Workload.generate workload 100_000 in
  let x = Policy.instantiate (module Lru) ~capacity:tlb_entries () in
  let y =
    Policy.instantiate (module Lru) ~capacity:(Params.usable_pages params) ()
  in
  let z = Simulation.create ~params ~x ~y () in
  let r = Simulation.run ~warmup z trace in
  Format.printf "%8s %12d %12d %12.1f   (h_max = %d, decoupled)@.@."
    "Z" r.Simulation.ios r.Simulation.tlb_fills
    (Simulation.cost ~epsilon r) params.Params.h_max

let () =
  let seed = ref 0 in
  let fresh () =
    incr seed;
    Prng.create ~seed:!seed ()
  in
  sweep ~name:"PageRank-style random walk (Fig 1b shape)" ~ram:2048
    ~mk_workload:(fun () -> Graph_walk.create ~virtual_pages:(1 lsl 14) (fresh ()));
  let csr = Kronecker.generate ~scale:13 ~edge_factor:16 (fresh ()) in
  let _, layout = Graph500.create_from csr (fresh ()) in
  let ram = layout.Graph500.total_pages * 9 / 10 in
  sweep ~name:"graph500 BFS (Fig 1c shape)" ~ram
    ~mk_workload:(fun () -> fst (Graph500.create_from csr (fresh ())))
