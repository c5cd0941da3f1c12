module Obs = Atp_obs

type tcache_mode =
  | Inclusive
  | Exclusive

type config = {
  pwc_entries : int;
  memory_latency : int;
  pwc_latency : int;
  tcache_entries : int;
  tcache_latency : int;
  tcache_mode : tcache_mode;
}

let default_config =
  {
    pwc_entries = 32;
    memory_latency = 100;
    pwc_latency = 2;
    tcache_entries = 0;
    tcache_latency = 30;
    tcache_mode = Inclusive;
  }

type result = {
  mapping : Page_table.mapping option;
  memory_accesses : int;
  cycles : int;
}

type stats = {
  walks : int;
  total_cycles : int;
  total_memory_accesses : int;
  pwc_hits : int;
  tcache_hits : int;
}

type t = {
  config : config;
  table : Page_table.t;
  (* Key: (skip, vpage prefix).  A hit with skip = g means the top g
     levels of the walk are already resolved. *)
  pwc : unit Atp_tlb.Tlb.t;
  (* The cache-resident PTE store (Victima-style): leaf translations
     living in the data-cache hierarchy, keyed by vpage.  [None] when
     the tier is disabled, so the default configuration stays
     byte-identical to a walker without the tier. *)
  tcache : unit Atp_tlb.Tlb.t option;
  mutable stats : stats;
  c_walks : Obs.Counter.t;
  c_pwc_hits : Obs.Counter.t;
  c_tcache_hits : Obs.Counter.t;
  c_memory_accesses : Obs.Counter.t;
  h_cycles : Obs.Histogram.t;
}

let create ?(config = default_config) ?obs table =
  if config.tcache_entries < 0 then
    invalid_arg "Walker.create: negative tcache_entries";
  let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
  (* When the tier is disabled, its counter lives in a throwaway
     registry so the exported obs snapshot is unchanged from a
     pre-tcache walker. *)
  let tcache_obs =
    if config.tcache_entries > 0 then obs else Obs.Scope.null ()
  in
  {
    config;
    table;
    pwc =
      Atp_tlb.Tlb.create ~obs:(Obs.Scope.sub obs "pwc")
        ~entries:config.pwc_entries ();
    tcache =
      (if config.tcache_entries > 0 then
         Some
           (Atp_tlb.Tlb.create
              ~obs:(Obs.Scope.sub tcache_obs "tcache")
              ~entries:config.tcache_entries ())
       else None);
    stats =
      {
        walks = 0;
        total_cycles = 0;
        total_memory_accesses = 0;
        pwc_hits = 0;
        tcache_hits = 0;
      };
    c_walks = Obs.Scope.counter obs "walks";
    c_pwc_hits = Obs.Scope.counter obs "pwc_hits";
    c_tcache_hits = Obs.Scope.counter tcache_obs "tcache_hits";
    c_memory_accesses = Obs.Scope.counter obs "memory_accesses";
    h_cycles = Obs.Scope.histogram obs "walk_cycles";
  }

let key ~skip vpage =
  let bits = (Page_table.levels - skip) * Page_table.fanout_bits in
  ((vpage lsr bits) * 4) lor skip

(* How many node visits the walk needs with no PWC at all: 1 per level
   down to the leaf (or to the empty slot that proves a fault). *)
let natural_visits table vpage =
  let mapping, visits = Page_table.walk table vpage in
  (mapping, visits)

let record t ~memory_accesses ~cycles ~pwc_hit ~tcache_hit mapping =
  let s = t.stats in
  t.stats <-
    {
      walks = s.walks + 1;
      total_cycles = s.total_cycles + cycles;
      total_memory_accesses = s.total_memory_accesses + memory_accesses;
      pwc_hits = (s.pwc_hits + if pwc_hit then 1 else 0);
      tcache_hits = (s.tcache_hits + if tcache_hit then 1 else 0);
    };
  Obs.Counter.incr t.c_walks;
  Obs.Counter.add t.c_memory_accesses memory_accesses;
  if pwc_hit then Obs.Counter.incr t.c_pwc_hits;
  if tcache_hit then Obs.Counter.incr t.c_tcache_hits;
  Obs.Histogram.observe t.h_cycles cycles;
  { mapping; memory_accesses; cycles }

let translate t vpage =
  let mapping, visits = natural_visits t.table vpage in
  (* The cache-resident PTE store is probed before the radix walk is
     engaged (the MMU finds the leaf PTE directly in the data cache);
     the probe costs its latency whether or not it hits. *)
  let tcache_hit =
    match t.tcache with
    | None -> false
    | Some tc -> (
      match Atp_tlb.Tlb.lookup tc vpage with
      | Some () -> mapping <> None
      | None -> false)
  in
  if tcache_hit then begin
    (* The walk is satisfied from the cache hierarchy: no page-table
       memory access at all.  An exclusive (victim) store hands the
       translation back to the TLB side, so the entry leaves it. *)
    (match (t.config.tcache_mode, t.tcache) with
     | Exclusive, Some tc -> ignore (Atp_tlb.Tlb.invalidate tc vpage)
     | (Inclusive | Exclusive), _ -> ());
    record t ~memory_accesses:0 ~cycles:t.config.tcache_latency ~pwc_hit:false
      ~tcache_hit:true mapping
  end
  else begin
    let probe_cycles =
      match t.tcache with None -> 0 | Some _ -> t.config.tcache_latency
    in
    (* Probe for the deepest usable prefix; each probe costs pwc_latency
       but only the successful one is a "hit". *)
    let max_skip = min (Page_table.levels - 1) (visits - 1) in
    let rec probe skip probes =
      if skip < 1 then (0, probes)
      else
        match Atp_tlb.Tlb.lookup t.pwc (key ~skip vpage) with
        | Some () -> (skip, probes + 1)
        | None -> probe (skip - 1) (probes + 1)
    in
    let skip, probes = probe max_skip 0 in
    let memory_accesses = max 1 (visits - skip) in
    let cycles =
      (memory_accesses * t.config.memory_latency)
      + (probes * t.config.pwc_latency)
      + probe_cycles
    in
    (* Fill the PWC with every interior entry this walk resolved, as the
       hardware would. *)
    for g = 1 to max_skip do
      ignore (Atp_tlb.Tlb.insert t.pwc (key ~skip:g vpage) ())
    done;
    (* An inclusive tier caches the leaf PTE the completed walk just
       loaded; an exclusive (victim) tier is filled only by [deposit]
       when the TLB evicts. *)
    (match (t.config.tcache_mode, t.tcache, mapping) with
     | Inclusive, Some tc, Some _ -> ignore (Atp_tlb.Tlb.insert tc vpage ())
     | (Inclusive | Exclusive), _, _ -> ());
    record t ~memory_accesses ~cycles ~pwc_hit:(skip > 0) ~tcache_hit:false
      mapping
  end

let deposit t vpage =
  match t.tcache with
  | None -> ()
  | Some tc -> ignore (Atp_tlb.Tlb.insert tc vpage ())

let invalidate t =
  Atp_tlb.Tlb.flush t.pwc;
  match t.tcache with None -> () | Some tc -> Atp_tlb.Tlb.flush tc

let invalidate_page t vpage =
  for skip = 1 to Page_table.levels - 1 do
    ignore (Atp_tlb.Tlb.invalidate t.pwc (key ~skip vpage))
  done;
  match t.tcache with
  | None -> ()
  | Some tc -> ignore (Atp_tlb.Tlb.invalidate tc vpage)

let tcache_enabled t = Option.is_some t.tcache

let stats t = t.stats

let average_cycles t =
  if t.stats.walks = 0 then 0.0
  else float_of_int t.stats.total_cycles /. float_of_int t.stats.walks

let epsilon t ~io_latency_cycles =
  if io_latency_cycles <= 0 then invalid_arg "Walker.epsilon: bad IO latency";
  average_cycles t /. float_of_int io_latency_cycles

let tcache_epsilon ~epsilon ~tcache_latency =
  let walk_cycles = Page_table.levels * default_config.memory_latency in
  Float.min epsilon
    (epsilon *. float_of_int tcache_latency /. float_of_int walk_cycles)
