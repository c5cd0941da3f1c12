open Atp_core
open Atp_paging
module Stream = Atp_workloads.Trace.Stream

type config = {
  p : int;
  w : int;
  scheme : Params.scheme;
  tlb : int;
  x_policy : string;
  y_policy : string;
  seed : int;
}

let parts c =
  let params = Params.derive ~scheme:c.scheme ~p:c.p ~w:c.w () in
  let rng = Atp_util.Prng.create ~seed:(c.seed + 1) () in
  let policy name capacity =
    Policy.instantiate (Registry.find_exn name)
      ~rng:(Atp_util.Prng.split rng) ~capacity ()
  in
  let x = policy c.x_policy c.tlb in
  let y = policy c.y_policy (Params.usable_pages params) in
  (params, x, y)

let simulation ?obs c =
  let params, x, y = parts c in
  Simulation.create ~seed:c.seed ?obs ~params ~x ~y ()

type result = { report : Simulation.report; x_hits : int; y_hits : int }

(* [f ~chunk req pages] for every chunk in order, under a [chunk] span
   whose first child times the decode. *)
let iter_chunks ?(spans = Spans.create ~enabled:false) ?parent path f =
  Stream.with_reader path (fun r ->
      let { Stream.length; chunk_size; _ } = Stream.header r in
      let chunks = (length + chunk_size - 1) / chunk_size in
      for req = 0 to chunks - 1 do
        let chunk = Spans.enter spans ?parent ~req "chunk" in
        let s = Spans.enter spans ~parent:chunk ~req "workloads.decode" in
        let pages = Option.get (Stream.next_chunk r) in
        Spans.leave spans s;
        f ~chunk req pages;
        Spans.leave spans chunk
      done)

let replay ?(spans = Spans.create ~enabled:false) c path =
  let params, x, y = parts c in
  let d = Decoupled.create ~seed:c.seed params in
  let cap =
    Stream.with_reader path (fun r -> (Stream.header r).Stream.chunk_size)
  in
  (* per chunk: r(p_i), X's outcome and Y's outcome, as fast codes *)
  let us = Array.make cap 0 and xo = Array.make cap 0 in
  let yo = Array.make cap 0 in
  let accesses = ref 0 and fills = ref 0 and ios = ref 0 in
  let decoding_misses = ref 0 in
  (* Simulation probes the covering huge page after every residency
     change (its psi-update count); the probe is part of D's work. *)
  let psi v = ignore (Decoupled.tlb_mem d (Decoupled.huge_of d v)) in
  let run = Spans.enter spans ~req:0 "run" in
  iter_chunks ~spans ~parent:run path (fun ~chunk req pages ->
      let n = Bigarray.Array1.dim pages in
      let s = Spans.enter spans ~parent:chunk ~req "paging.x" in
      for i = 0 to n - 1 do
        let u = Decoupled.huge_of d (Bigarray.Array1.unsafe_get pages i) in
        us.(i) <- u;
        xo.(i) <- Policy.fast_of_outcome (x.Policy.access u)
      done;
      Spans.leave spans s;
      let s = Spans.enter spans ~parent:chunk ~req "paging.y" in
      for i = 0 to n - 1 do
        let page = Bigarray.Array1.unsafe_get pages i in
        yo.(i) <- Policy.fast_of_outcome (y.Policy.access page)
      done;
      Spans.leave spans s;
      let s = Spans.enter spans ~parent:chunk ~req "core.decoupled" in
      for i = 0 to n - 1 do
        let page = Bigarray.Array1.unsafe_get pages i in
        let xf = xo.(i) in
        if not (Policy.fast_is_hit xf) then begin
          incr fills;
          if xf >= 0 then Decoupled.tlb_remove d xf;
          Decoupled.tlb_add d us.(i)
        end;
        let yf = yo.(i) in
        if not (Policy.fast_is_hit yf) then begin
          incr ios;
          if yf >= 0 then begin
            Decoupled.ram_evict d yf;
            psi yf
          end;
          Decoupled.ram_insert d page;
          psi page
        end;
        match Decoupled.translate d page with
        | Decoupled.Frame _ -> ()
        | Decoupled.Decode_fault -> incr decoding_misses
        | Decoupled.Not_covered ->
          failwith "layered replay: page not covered after X"
      done;
      Spans.leave spans s;
      accesses := !accesses + n);
  Spans.leave spans run;
  let alloc = Decoupled.alloc d in
  {
    report =
      {
        Simulation.accesses = !accesses;
        ios = !ios;
        tlb_fills = !fills;
        decoding_misses = !decoding_misses;
        failures_total = Alloc.failures_total alloc;
        max_bucket_load = Alloc.max_bucket_load alloc;
      };
    x_hits = !accesses - !fills;
    y_hits = !accesses - !ios;
  }

let simulate ?obs c path =
  let sim = simulation ?obs c in
  let busy = ref 0. in
  iter_chunks path (fun ~chunk:_ _ pages ->
      let t0 = Proc.now () in
      for i = 0 to Bigarray.Array1.dim pages - 1 do
        Simulation.access sim (Bigarray.Array1.unsafe_get pages i)
      done;
      busy := !busy +. (Proc.now () -. t0));
  (Simulation.report sim, !busy)
