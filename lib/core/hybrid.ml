open Atp_paging

type report = {
  accesses : int;
  ios : int;
  chunk_faults : int;
  tlb_fills : int;
  decoding_misses : int;
  coverage : int;
}

let ledger (r : report) =
  { Atp_obs.Cost.zero with
    ios = r.ios; tlb = r.tlb_fills; decode = r.decoding_misses }

type t = {
  chunk : int;
  sim : Simulation.t;
  h_max : int;
}

let create ?seed ~ram_pages ~chunk ~w ~tlb_entries () =
  if chunk < 1 || chunk land (chunk - 1) <> 0 then
    invalid_arg "Hybrid.create: chunk must be a power of two";
  let chunk_frames = ram_pages / chunk in
  if chunk_frames < 2 then invalid_arg "Hybrid.create: RAM too small for chunks";
  (* The decoupled machinery runs over chunk-sized units. *)
  let params = Params.derive ~p:chunk_frames ~w () in
  let x = Policy.instantiate (module Lru) ~capacity:tlb_entries () in
  let y =
    Policy.instantiate (module Lru) ~capacity:(Params.usable_pages params) ()
  in
  let sim = Simulation.create ?seed ~params ~x ~y () in
  { chunk; sim; h_max = params.Params.h_max }

let coverage t = t.chunk * t.h_max

let access t page = Simulation.access t.sim (page / t.chunk)

let report t =
  let r = Simulation.report t.sim in
  {
    accesses = r.Simulation.accesses;
    ios = r.Simulation.ios * t.chunk;
    chunk_faults = r.Simulation.ios;
    tlb_fills = r.Simulation.tlb_fills;
    decoding_misses = r.Simulation.decoding_misses;
    coverage = coverage t;
  }

let reset_report t = Simulation.reset_report t.sim

let run ?warmup t trace =
  (match warmup with
   | Some w -> Array.iter (access t) w
   | None -> ());
  Simulation.reset_report t.sim;
  Array.iter (access t) trace;
  report t
