open Atp_util
open Atp_paging
module Obs = Atp_obs
module Tlb = Atp_tlb.Tlb

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

type t = {
  cfg : config;
  huge_shift : int;
  tlbs : int Tlb.t array;           (* per core: huge page -> base frame *)
  (* Victima-style victim store: translations a TLB evicts survive
     here (the data-cache hierarchy, shared by every core) and can be
     recovered at a cost between a TLB hit and a full miss.  [None]
     when disabled. *)
  tcache : int Tlb.t option;
  ram : Lru.t;                      (* shared residency of huge pages *)
  frame_of : Int_table.t;           (* huge page -> base frame *)
  buddy : Buddy.t;
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
      Array.init cfg.cores (fun _ ->
          Tlb.create ~obs:(Obs.Scope.sub obs "tlb") ~entries:cfg.tlb_entries
            ());
    tcache =
      (if cfg.tcache_entries > 0 then
         Some
           (Tlb.create
              ~obs:(Obs.Scope.sub tcache_obs "tcache")
              ~entries:cfg.tcache_entries ())
       else None);
    ram = Lru.create ~capacity:huge_frames ();
    frame_of = Int_table.create ();
    buddy = Buddy.create ~frames:cfg.ram_pages;
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

let config t = t.cfg

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
let touch_resident t hu =
  if not (Policy.fast_is_hit (Lru.access_fast t.ram hu)) then assert false

(* Unmap [hu] everywhere its translation is cached: every core's TLB
   and the shared victim store, which would otherwise keep serving a
   dead mapping.  Each remote core that held it takes an IPI; the
   initiator [core] flushes locally for free, and so does the store,
   which one local invalidation covers for every core. *)
let shootdown t ~core hu =
  let held = ref false in
  let remote = ref 0 in
  for c = 0 to t.cfg.cores - 1 do
    if Tlb.invalidate t.tlbs.(c) hu then
      if c = core then held := true else incr remote
  done;
  (match t.tcache with
   | Some tc -> if Tlb.invalidate tc hu then held := true
   | None -> ());
  if !held || !remote > 0 then begin
    Obs.Counter.incr t.c_shootdowns;
    Obs.Counter.add t.c_ipis !remote
  end

(* Bring the huge page containing [hu] into RAM if absent, paying h
   IOs on a fault; returns its base frame. *)
let ensure_resident t ~core hu =
  let r = Lru.access_fast t.ram hu in
  if Policy.fast_is_hit r then Int_table.find_exn t.frame_of hu
  else begin
    let victim = Policy.fast_evicted r in
    if victim >= 0 then begin
      let base = Int_table.find_exn t.frame_of victim in
      ignore (Int_table.remove t.frame_of victim);
      Buddy.free t.buddy ~base ~order:t.huge_shift;
      Obs.Trace.record t.tr Obs.Event.Eviction victim hu;
      shootdown t ~core victim
    end;
    let base =
      match Buddy.alloc t.buddy ~order:t.huge_shift with
      | Some base -> base
      | None ->
        (* With uniform huge pages the buddy cannot fragment; running
           out means the policy overcommitted, which is a bug. *)
        assert false
    in
    Int_table.set t.frame_of hu base;
    Obs.Counter.incr t.c_page_faults;
    Obs.Counter.add t.c_ios t.cfg.huge_size;
    Obs.Trace.record t.tr Obs.Event.Io hu t.cfg.huge_size;
    base
  end

(* A TLB insert's victim falls into the cache-resident victim store
   instead of vanishing (Victima caches TLB-evicted PTEs). *)
let fill_tlb t tlb hu base =
  match (Tlb.insert tlb hu base, t.tcache) with
  | Some (victim, victim_base), Some tc ->
    ignore (Tlb.insert tc victim victim_base)
  | (Some _ | None), _ -> ()

let access t ~core vpage =
  if core < 0 || core >= t.cfg.cores then
    invalid_arg "Machine.access: bad core";
  if vpage < 0 then invalid_arg "Machine.access: negative page";
  let hu = vpage lsr t.huge_shift in
  let tlb = t.tlbs.(core) in
  Obs.Counter.incr t.c_accesses;
  if Tlb.probe_fast tlb hu then begin
    touch_resident t hu;
    Obs.Counter.incr t.c_tlb_hits
  end
  else begin
    Obs.Counter.incr t.c_tlb_misses;
    let base =
      match t.tcache with
      | Some tc when Tlb.mem tc hu ->
        (* Recovered from the cache hierarchy: still a TLB miss, but a
           cheap one (the ledger bills it as [cheap], not [tlb]).  A
           store entry implies residency — eviction shoots the store
           down — so no IO can be due. *)
        Obs.Counter.incr t.c_tcache_hits;
        let base =
          match Tlb.lookup tc hu with
          | Some base -> base
          | None -> assert false
        in
        touch_resident t hu;
        (* Exclusive: the recovered translation migrates back up. *)
        ignore (Tlb.invalidate tc hu);
        base
      | Some _ | None -> ensure_resident t ~core hu
    in
    fill_tlb t tlb hu base
  end

let run_with core_of ?warmup t trace =
  let play = Array.iteri (fun i vpage -> access t ~core:(core_of i vpage) vpage) in
  Option.iter play warmup;
  reset_counters t;
  Array.iter Tlb.reset_stats t.tlbs;
  play trace;
  counters t

let run ?warmup t trace =
  run_with (fun i _ -> i mod t.cfg.cores) ?warmup t trace

let run_partitioned ?warmup t trace =
  run_with
    (fun _ vpage ->
      Hashing.hash_in ~seed:0x5135 t.cfg.cores (vpage lsr t.huge_shift))
    ?warmup t trace

let pp_counters ppf c =
  Format.fprintf ppf
    "accesses=%a tlb-hits=%a tlb-misses=%a tcache-hits=%a faults=%a ios=%a"
    Stats.pp_count c.accesses Stats.pp_count c.tlb_hits Stats.pp_count
    c.tlb_misses Stats.pp_count c.tcache_hits Stats.pp_count c.page_faults
    Stats.pp_count c.ios
