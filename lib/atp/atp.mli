(** The umbrella namespace: one [open Atp] (or qualified [Atp.Core.…])
    reaches every library in the project.

    - {!Util}: PRNG, hashing, bit-packed arrays, a Zipf sampler,
      statistics.
    - {!Obs}: the observability layer — metric registry, counters,
      histograms, ring-buffer event tracing, JSON export, and the cost
      ledger every machine is priced by.
    - {!Paging}: replacement policies, OPT, simulation, miss-ratio
      curves, competitive analysis.
    - {!Tlb}: the LRU TLB and the split per-page-size TLB.
    - {!Memsim}: page tables, walkers, nested translation, the
      Section 6 machine on one core or many, THP, superpages, the VMM.
    - {!Core}: the paper's contribution — decoupling, the Simulation
      Theorem, the hybrid scheme, the unified scheme interface.
    - {!Workloads}: the paper's workloads, trace IO and import. *)

module Util = Atp_util
module Obs = Atp_obs
module Paging = Atp_paging
module Tlb = Atp_tlb
module Memsim = Atp_memsim
module Core = Atp_core
module Workloads = Atp_workloads
