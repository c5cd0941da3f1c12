open Atp_paging
module Obs = Atp_obs

[@@@atplint.hot]

type report = {
  accesses : int;
  ios : int;
  tlb_fills : int;
  decoding_misses : int;
  failures_total : int;
  max_bucket_load : int;
}

let ledger (r : report) =
  { Obs.Cost.zero with
    ios = r.ios; tlb = r.tlb_fills; decode = r.decoding_misses }

let cost ~epsilon r = Obs.Cost.price ~epsilon (ledger r)

let c_tlb ~epsilon (r : report) =
  Obs.Cost.price ~epsilon { Obs.Cost.zero with tlb = r.tlb_fills }

let c_io (r : report) = float_of_int r.ios

type t = {
  d : Decoupled.t;
  x : int -> int;  (* X's access_fast *)
  y : int -> int;  (* Y's access_fast *)
  failures_at_reset : int ref;
  tr : Obs.Trace.t;
  c_accesses : Obs.Counter.t;
  c_ios : Obs.Counter.t;
  c_tlb_fills : Obs.Counter.t;
  c_decoding_misses : Obs.Counter.t;
  c_psi_updates : Obs.Counter.t;
  g_max_bucket_load : Obs.Gauge.t;
}

(* Constructor, not per-access code: runs once per simulator, so the
   allocations its callees perform are setup cost, not hot-path churn.
   (The file-wide hot tag covers [access].) *)
let[@atplint.allow "hot-path-alloc-transitive"] create ?seed ?obs ~params
    ~(x : Policy.instance) ~(y : Policy.instance) () =
  let budget = Params.usable_pages params in
  if y.Policy.capacity > budget then
    invalid_arg
      (Printf.sprintf
         "Simulation.create: Y capacity %d exceeds the (1-delta)P budget %d"
         y.Policy.capacity budget);
  let d = Decoupled.create ?seed params in
  let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
  {
    d;
    x = x.Policy.access_fast;
    y = y.Policy.access_fast;
    failures_at_reset = ref 0;
    tr = Obs.Scope.tracer obs;
    c_accesses = Obs.Scope.counter obs "accesses";
    c_ios = Obs.Scope.counter obs "ios";
    c_tlb_fills = Obs.Scope.counter obs "tlb_fills";
    c_decoding_misses = Obs.Scope.counter obs "decoding_misses";
    c_psi_updates = Obs.Scope.counter obs "psi_updates";
    g_max_bucket_load = Obs.Scope.gauge obs "max_bucket_load";
  }

let decoupled t = t.d

(* A residency change rewrites the ψ field of the covering huge page;
   when that huge page is TLB-covered, the materialized entry must be
   refreshed too — the ψ-update cost the SMP model charges IPIs for. *)
let[@inline] note_psi_update t page =
  let u = Decoupled.huge_of t.d page in
  if Decoupled.tlb_mem t.d u then begin
    Obs.Counter.incr t.c_psi_updates;
    Obs.Trace.record t.tr Obs.Event.Psi_update page u
  end

(* Outcomes travel as the untagged ints of {!Policy.access_fast} and
   translation as {!Decoupled.translate_covered_code}: no block is
   allocated per access. *)
let access t page =
  Obs.Counter.incr t.c_accesses;
  let u = Decoupled.huge_of t.d page in
  (* TLB side: Z's TLB mirrors X's content on the stream r(σ). *)
  let fx = t.x u in
  if Policy.fast_is_hit fx then Obs.Trace.record t.tr Obs.Event.Tlb_hit u 0
  else begin
    Obs.Counter.incr t.c_tlb_fills;
    Obs.Trace.record t.tr Obs.Event.Tlb_miss u 0;
    let victim = Policy.fast_evicted fx in
    if victim >= 0 then begin
      Obs.Trace.record t.tr Obs.Event.Eviction victim u;
      Decoupled.tlb_remove t.d victim
    end;
    Decoupled.tlb_add t.d u
  end;
  (* RAM side: Z's active set mirrors Y's. *)
  let fy = t.y page in
  if not (Policy.fast_is_hit fy) then begin
    Obs.Counter.incr t.c_ios;
    Obs.Trace.record t.tr Obs.Event.Io page 0;
    let victim = Policy.fast_evicted fy in
    if victim >= 0 then begin
      Decoupled.ram_evict t.d victim;
      note_psi_update t victim
    end;
    Decoupled.ram_insert t.d page;
    note_psi_update t page
  end;
  (* Translate. u is covered — X just added it on a miss, or holds it
     on a hit — and the page is active, so the only non-frame answer is
     a decoding miss from a paging failure. *)
  let code = Decoupled.translate_covered_code t.d page u in
  if code = Decoupled.fault_code then begin
    Obs.Counter.incr t.c_decoding_misses;
    Obs.Trace.record t.tr Obs.Event.Decode_miss page u
  end

let report t =
  let max_bucket_load = Alloc.max_bucket_load (Decoupled.alloc t.d) in
  Obs.Gauge.set_int t.g_max_bucket_load max_bucket_load;
  {
    accesses = Obs.Counter.value t.c_accesses;
    ios = Obs.Counter.value t.c_ios;
    tlb_fills = Obs.Counter.value t.c_tlb_fills;
    decoding_misses = Obs.Counter.value t.c_decoding_misses;
    failures_total =
      Alloc.failures_total (Decoupled.alloc t.d) - !(t.failures_at_reset);
    max_bucket_load;
  }

let reset_report t =
  t.failures_at_reset := Alloc.failures_total (Decoupled.alloc t.d);
  Obs.Counter.reset t.c_accesses;
  Obs.Counter.reset t.c_ios;
  Obs.Counter.reset t.c_tlb_fills;
  Obs.Counter.reset t.c_decoding_misses;
  Obs.Counter.reset t.c_psi_updates

let access_all t refs =
  for i = 0 to Array.length refs - 1 do
    access t (Array.unsafe_get refs i)
  done

let run ?warmup t trace =
  (match warmup with
   | Some w -> access_all t w
   | None -> ());
  reset_report t;
  access_all t trace;
  report t

(* Trace preparation, once per trace: not per-access code. *)
let[@atplint.allow "hot-path-alloc"] huge_trace ~h_max trace =
  Array.map (fun p -> p / h_max) trace

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "accesses=%a ios=%a tlb-fills=%a decoding-misses=%a failures=%a \
     max-bucket-load=%d"
    Atp_util.Stats.pp_count r.accesses Atp_util.Stats.pp_count r.ios
    Atp_util.Stats.pp_count r.tlb_fills Atp_util.Stats.pp_count
    r.decoding_misses Atp_util.Stats.pp_count r.failures_total
    r.max_bucket_load
