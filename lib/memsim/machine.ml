open Atp_util
open Atp_paging
module Obs = Atp_obs

type config = {
  ram_pages : int;
  tlb_entries : int;
  huge_size : int;
  epsilon : float;
  cores : int;
  tcache_entries : int;
}

let default_config =
  {
    ram_pages = 1 lsl 18;
    tlb_entries = 1536;
    huge_size = 1;
    epsilon = 0.01;
    cores = 1;
    tcache_entries = 0;
  }

type counters = {
  accesses : int;
  tlb_hits : int;
  tlb_misses : int;
  tcache_hits : int;
  page_faults : int;
  ios : int;
  shootdowns : int;
  ipis : int;
}

let ledger c =
  { Obs.Cost.zero with
    ios = c.ios; tlb = c.tlb_misses - c.tcache_hits; cheap = c.tcache_hits;
    ipis = c.ipis }

let cost ~epsilon c = Obs.Cost.price ~epsilon (ledger c)

(* The counters a TLB registers ([Atp_tlb.Tlb]'s names): every core's
   TLB adds into one set under [tlb], the victim store has its own
   under [tcache]. *)
type set_stats = {
  lookups : Obs.Counter.t;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  insertions : Obs.Counter.t;
  evictions : Obs.Counter.t;
}

let set_stats obs =
  {
    lookups = Obs.Scope.counter obs "lookups";
    hits = Obs.Scope.counter obs "hits";
    misses = Obs.Scope.counter obs "misses";
    insertions = Obs.Scope.counter obs "insertions";
    evictions = Obs.Scope.counter obs "evictions";
  }

type t = {
  cfg : config;
  huge_shift : int;
  tlbs : Lru.t array;               (* per core: the huge pages it maps *)
  tlb_stats : set_stats;
  (* Victima-style victim store: translations a TLB evicts survive
     here (the data-cache hierarchy, shared by every core) and can be
     recovered at a cost between a TLB hit and a full miss.  [None]
     when disabled. *)
  store : Lru.t option;
  store_stats : set_stats;
  ram : Lru.t;                      (* shared residency of huge pages *)
  tr : Obs.Trace.t;
  c_accesses : Obs.Counter.t;
  c_tlb_hits : Obs.Counter.t;
  c_tlb_misses : Obs.Counter.t;
  c_tcache_hits : Obs.Counter.t;
  c_page_faults : Obs.Counter.t;
  c_ios : Obs.Counter.t;
  c_shootdowns : Obs.Counter.t;
  c_ipis : Obs.Counter.t;
}

let create ?obs cfg =
  let huge_shift =
    match Buddy.order_of_size cfg.huge_size with
    | Some s -> s
    | None -> invalid_arg "Machine.create: huge_size must be a power of two"
  in
  let huge_frames = cfg.ram_pages / cfg.huge_size in
  if huge_frames < 1 then
    invalid_arg "Machine.create: RAM smaller than one huge page";
  if cfg.tlb_entries < 1 then
    invalid_arg "Machine.create: need at least one TLB entry";
  if cfg.cores < 1 then invalid_arg "Machine.create: need at least one core";
  if cfg.tcache_entries < 0 then
    invalid_arg "Machine.create: negative tcache_entries";
  let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
  (* Keep the obs snapshot byte-identical to a one-core, pre-tier
     machine: counters it does not have live in a throwaway registry. *)
  let tcache_obs =
    if cfg.tcache_entries > 0 then obs else Obs.Scope.null ()
  in
  let cores_obs = if cfg.cores > 1 then obs else Obs.Scope.null () in
  {
    cfg;
    huge_shift;
    tlbs =
      Array.init cfg.cores (fun _ -> Lru.create ~capacity:cfg.tlb_entries ());
    tlb_stats = set_stats (Obs.Scope.sub obs "tlb");
    store =
      (if cfg.tcache_entries > 0 then
         Some (Lru.create ~capacity:cfg.tcache_entries ())
       else None);
    store_stats = set_stats (Obs.Scope.sub tcache_obs "tcache");
    (* With one huge-page size every resident huge page fills one of
       the [huge_frames] aligned blocks, so the RAM LRU's capacity is
       the allocator: no frame number is ever read. *)
    ram = Lru.create ~capacity:huge_frames ();
    tr = Obs.Scope.tracer obs;
    c_accesses = Obs.Scope.counter obs "accesses";
    c_tlb_hits = Obs.Scope.counter obs "tlb_hits";
    c_tlb_misses = Obs.Scope.counter obs "tlb_misses";
    c_tcache_hits = Obs.Scope.counter tcache_obs "tcache_hits";
    c_page_faults = Obs.Scope.counter obs "page_faults";
    c_ios = Obs.Scope.counter obs "ios";
    c_shootdowns = Obs.Scope.counter cores_obs "shootdowns";
    c_ipis = Obs.Scope.counter cores_obs "ipis";
  }

let counters t =
  {
    accesses = Obs.Counter.value t.c_accesses;
    tlb_hits = Obs.Counter.value t.c_tlb_hits;
    tlb_misses = Obs.Counter.value t.c_tlb_misses;
    tcache_hits = Obs.Counter.value t.c_tcache_hits;
    page_faults = Obs.Counter.value t.c_page_faults;
    ios = Obs.Counter.value t.c_ios;
    shootdowns = Obs.Counter.value t.c_shootdowns;
    ipis = Obs.Counter.value t.c_ipis;
  }

let reset_counters t =
  Obs.Counter.reset t.c_accesses;
  Obs.Counter.reset t.c_tlb_hits;
  Obs.Counter.reset t.c_tlb_misses;
  Obs.Counter.reset t.c_tcache_hits;
  Obs.Counter.reset t.c_page_faults;
  Obs.Counter.reset t.c_ios;
  Obs.Counter.reset t.c_shootdowns;
  Obs.Counter.reset t.c_ipis

let resident_pages t = Lru.size t.ram * t.cfg.huge_size

(* A TLB hit or a recovered translation implies residency (entries are
   shot down on eviction), but RAM recency must still see the access,
   as the paper's simulator does — otherwise the RAM LRU order would be
   driven only by TLB misses. *)
let[@atplint.hot] touch_resident t hu =
  if not (Lru.touch t.ram hu) then assert false

(* Unmap [hu] everywhere its translation is cached: every core's TLB
   and the shared victim store, which would otherwise keep serving a
   dead mapping.  Each remote core that held it takes an IPI; the
   initiator [core] flushes locally for free, and so does the store,
   which one local invalidation covers for every core. *)
let[@atplint.hot] shootdown t ~core hu =
  let held = ref false in
  let remote = ref 0 in
  for c = 0 to t.cfg.cores - 1 do
    if Lru.remove t.tlbs.(c) hu then
      if c = core then held := true else incr remote
  done;
  (match t.store with
   | Some store -> if Lru.remove store hu then held := true
   | None -> ());
  if !held || !remote > 0 then begin
    Obs.Counter.incr t.c_shootdowns;
    Obs.Counter.add t.c_ipis !remote
  end

(* Bring the huge page containing [hu] into RAM if absent, paying h
   IOs on a fault. *)
let[@atplint.hot] ensure_resident t ~core hu =
  let r = Lru.access_fast t.ram hu in
  if not (Policy.fast_is_hit r) then begin
    if r >= 0 then begin
      Obs.Trace.record t.tr Obs.Event.Eviction r hu;
      shootdown t ~core r
    end;
    Obs.Counter.incr t.c_page_faults;
    Obs.Counter.add t.c_ios t.cfg.huge_size;
    Obs.Trace.record t.tr Obs.Event.Io hu t.cfg.huge_size
  end

(* Insert [page] into a TLB-like [set], counting as [Tlb.insert] does;
   returns [Lru.access_fast]'s code, the victim when [>= 0]. *)
let[@atplint.hot] insert t stats set page =
  let victim = Lru.access_fast set page in
  Obs.Counter.incr stats.insertions;
  if victim >= 0 then begin
    Obs.Counter.incr stats.evictions;
    Obs.Trace.record t.tr Obs.Event.Eviction victim page
  end;
  victim

(* A TLB fill's victim falls into the cache-resident victim store
   instead of vanishing (Victima caches TLB-evicted PTEs). *)
let[@atplint.hot] fill_tlb t tlb hu =
  let victim = insert t t.tlb_stats tlb hu in
  if victim >= 0 then
    match t.store with
    | Some store -> ignore (insert t t.store_stats store victim)
    | None -> ()

(* Recover [hu] from the victim store: still a TLB miss, but a cheap
   one (the ledger bills it as [cheap], not [tlb]).  A store entry
   implies residency — eviction shoots the store down — so no IO can
   be due.  Exclusive: the recovered translation leaves the store and
   migrates back up. *)
let[@atplint.hot] recover t hu =
  let recovered =
    match t.store with Some store -> Lru.remove store hu | None -> false
  in
  if recovered then begin
    Obs.Counter.incr t.c_tcache_hits;
    Obs.Counter.incr t.store_stats.lookups;
    Obs.Counter.incr t.store_stats.hits;
    Obs.Trace.record t.tr Obs.Event.Tlb_hit hu 0;
    touch_resident t hu
  end;
  recovered

let[@atplint.hot] access t ~core vpage =
  if core < 0 || core >= t.cfg.cores then
    invalid_arg "Machine.access: bad core";
  if vpage < 0 then invalid_arg "Machine.access: negative page";
  let hu = vpage lsr t.huge_shift in
  let tlb = t.tlbs.(core) in
  Obs.Counter.incr t.c_accesses;
  Obs.Counter.incr t.tlb_stats.lookups;
  if Lru.touch tlb hu then begin
    Obs.Counter.incr t.tlb_stats.hits;
    Obs.Trace.record t.tr Obs.Event.Tlb_hit hu 0;
    touch_resident t hu;
    Obs.Counter.incr t.c_tlb_hits
  end
  else begin
    Obs.Counter.incr t.tlb_stats.misses;
    Obs.Trace.record t.tr Obs.Event.Tlb_miss hu 0;
    Obs.Counter.incr t.c_tlb_misses;
    (* Probe, then fault, then fill: a fault's shootdown can free a
       slot in this very TLB, which the fill must see. *)
    if not (recover t hu) then ensure_resident t ~core hu;
    fill_tlb t tlb hu
  end

(* Warm up, zero every counter a run reports (the victim store's own
   [tcache.*] counters keep counting), then measure. *)
let measure play ?warmup t trace =
  Option.iter play warmup;
  reset_counters t;
  let s = t.tlb_stats in
  List.iter Obs.Counter.reset
    [ s.lookups; s.hits; s.misses; s.insertions; s.evictions ];
  play trace;
  counters t

let run ?warmup t trace =
  let play refs =
    let core = ref 0 in
    for i = 0 to Array.length refs - 1 do
      access t ~core:!core refs.(i);
      incr core;
      if !core = t.cfg.cores then core := 0
    done
  in
  measure play ?warmup t trace

let run_partitioned ?warmup t trace =
  let core_of vpage =
    Hashing.hash_in ~seed:0x5135 t.cfg.cores (vpage lsr t.huge_shift)
  in
  measure
    (Array.iter (fun vpage -> access t ~core:(core_of vpage) vpage))
    ?warmup t trace

let pp_counters ppf c =
  Format.fprintf ppf
    "accesses=%a tlb-hits=%a tlb-misses=%a tcache-hits=%a faults=%a ios=%a"
    Stats.pp_count c.accesses Stats.pp_count c.tlb_hits Stats.pp_count
    c.tlb_misses Stats.pp_count c.tcache_hits Stats.pp_count c.page_faults
    Stats.pp_count c.ios
