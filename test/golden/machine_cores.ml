(* Prints Machine's counters for cores ∈ {1, 2, 4, 8} × {run,
   run_partitioned} × tcache_entries ∈ {0, 64} × huge_size ∈ {1, 8} on
   a zipf and a uniform trace, under two sizings: "ram-bound", where
   one core's TLB reach covers RAM so evictions hit cached translations
   and shootdowns and IPIs are non-zero, and "tlb-bound", where small
   TLBs stream victims through the shared store.  Each one-core case
   also prints the obs snapshot and a digest of the last 4096 trace
   events.  machine_cores.expected.txt was recorded from the separate
   multi-core simulator and the one-core Machine that Machine replaced:
   the merged machine must reproduce both byte for byte. *)

open Atp_util
open Atp_memsim
open Atp_workloads
module Obs = Atp_obs

let traces =
  let gen name w = (name, Workload.generate w 5_000, Workload.generate w 20_000) in
  [
    gen "zipf"
      (Simple.zipf ~s:0.9 ~virtual_pages:4_096 (Prng.create ~seed:41 ()));
    gen "uniform" (Simple.uniform ~virtual_pages:2_048 (Prng.create ~seed:42 ()));
  ]

let sizings = [ ("ram-bound", 256, 256); ("tlb-bound", 1_024, 32) ]

let cores = [ 1; 2; 4; 8 ]

let tcaches = [ 0; 64 ]

let huge_sizes = [ 1; 8 ]

let () =
  List.iter
    (fun (tname, warmup, trace) ->
      List.iter
        (fun (sname, ram_pages, tlb_entries) ->
          List.iter
            (fun tcache_entries ->
              List.iter
                (fun huge_size ->
                  let config cores =
                    {
                      Machine.default_config with
                      ram_pages;
                      tlb_entries;
                      huge_size;
                      cores;
                      tcache_entries;
                    }
                  in
                  List.iter
                    (fun cores ->
                      List.iter
                        (fun (mode, run) ->
                          let c = run ~warmup (Machine.create (config cores)) trace in
                          Format.printf
                            "%s %s tc=%d h=%d cores=%d %s: accesses=%d \
                             tlb_misses=%d tcache_hits=%d ios=%d \
                             shootdowns=%d ipis=%d@."
                            tname sname tcache_entries huge_size cores mode
                            c.Machine.accesses c.tlb_misses c.tcache_hits c.ios
                            c.shootdowns c.ipis)
                        [
                          ("shared", fun ~warmup -> Machine.run ~warmup);
                          ( "partitioned",
                            fun ~warmup -> Machine.run_partitioned ~warmup );
                        ])
                    cores;
                  let tr = Obs.Trace.create ~capacity:4096 in
                  let reg = Obs.Registry.create ~trace:tr () in
                  let m = Machine.create ~obs:(Obs.Scope.v reg) (config 1) in
                  let c = Machine.run ~warmup m trace in
                  let events = Buffer.create 4096 in
                  Obs.Trace.to_jsonl events tr;
                  Format.printf "%s %s tc=%d h=%d machine: %a@.%s@.events %s@."
                    tname sname tcache_entries huge_size Machine.pp_counters c
                    (Obs.Registry.snapshot_string reg)
                    (Digest.to_hex (Digest.string (Buffer.contents events))))
                huge_sizes)
            tcaches)
        sizings)
    traces
