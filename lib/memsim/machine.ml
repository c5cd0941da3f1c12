open Atp_util
open Atp_paging
module Obs = Atp_obs

type config = {
  ram_pages : int;
  tlb_entries : int;
  huge_size : int;
  epsilon : float;
  tcache_entries : int;
  ram_policy : (module Policy.S);
  tlb_policy : (module Policy.S);
  seed : int;
}

let default_config =
  {
    ram_pages = 1 lsl 18;
    tlb_entries = 1536;
    huge_size = 1;
    epsilon = 0.01;
    tcache_entries = 0;
    ram_policy = (module Lru : Policy.S);
    tlb_policy = (module Lru : Policy.S);
    seed = 42;
  }

type counters = {
  accesses : int;
  tlb_hits : int;
  tlb_misses : int;
  tcache_hits : int;
  page_faults : int;
  ios : int;
}

let ledger c =
  { Obs.Cost.zero with
    ios = c.ios; tlb = c.tlb_misses - c.tcache_hits; cheap = c.tcache_hits }

let cost ~epsilon c = Obs.Cost.price ~epsilon (ledger c)

type t = {
  cfg : config;
  huge_shift : int;
  tlb : int Atp_tlb.Tlb.t;          (* huge page -> base frame *)
  (* Victima-style victim store: translations the TLB evicts survive
     here (the data-cache hierarchy) and can be recovered at a cost
     between a TLB hit and a full miss.  [None] when disabled. *)
  tcache : int Atp_tlb.Tlb.t option;
  ram : Policy.instance;            (* residency of huge pages *)
  frame_of : Int_table.t;           (* huge page -> base frame *)
  buddy : Buddy.t;
  tr : Obs.Trace.t;
  c_accesses : Obs.Counter.t;
  c_tlb_hits : Obs.Counter.t;
  c_tlb_misses : Obs.Counter.t;
  c_tcache_hits : Obs.Counter.t;
  c_page_faults : Obs.Counter.t;
  c_ios : Obs.Counter.t;
}

let log2_exact n =
  if n < 1 || n land (n - 1) <> 0 then None
  else begin
    let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
    Some (go 0 n)
  end

let create ?obs cfg =
  let huge_shift =
    match log2_exact cfg.huge_size with
    | Some s -> s
    | None -> invalid_arg "Machine.create: huge_size must be a power of two"
  in
  let huge_frames = cfg.ram_pages / cfg.huge_size in
  if huge_frames < 1 then
    invalid_arg "Machine.create: RAM smaller than one huge page";
  if cfg.tcache_entries < 0 then
    invalid_arg "Machine.create: negative tcache_entries";
  let rng = Prng.create ~seed:cfg.seed () in
  let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
  (* Keep the obs snapshot byte-identical to a pre-tier machine when
     the tier is off: its counter then lives in a throwaway registry. *)
  let tcache_obs =
    if cfg.tcache_entries > 0 then obs else Obs.Scope.null ()
  in
  {
    cfg;
    huge_shift;
    tlb =
      Atp_tlb.Tlb.create ~policy:cfg.tlb_policy ~rng:(Prng.split rng)
        ~obs:(Obs.Scope.sub obs "tlb") ~entries:cfg.tlb_entries ();
    tcache =
      (if cfg.tcache_entries > 0 then
         Some
           (Atp_tlb.Tlb.create
              ~obs:(Obs.Scope.sub tcache_obs "tcache")
              ~entries:cfg.tcache_entries ())
       else None);
    ram = Policy.instantiate cfg.ram_policy ~rng:(Prng.split rng)
            ~capacity:huge_frames ();
    frame_of = Int_table.create ();
    buddy = Buddy.create ~frames:cfg.ram_pages;
    tr = Obs.Scope.tracer obs;
    c_accesses = Obs.Scope.counter obs "accesses";
    c_tlb_hits = Obs.Scope.counter obs "tlb_hits";
    c_tlb_misses = Obs.Scope.counter obs "tlb_misses";
    c_tcache_hits = Obs.Scope.counter tcache_obs "tcache_hits";
    c_page_faults = Obs.Scope.counter obs "page_faults";
    c_ios = Obs.Scope.counter obs "ios";
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
  }

let reset_counters t =
  Obs.Counter.reset t.c_accesses;
  Obs.Counter.reset t.c_tlb_hits;
  Obs.Counter.reset t.c_tlb_misses;
  Obs.Counter.reset t.c_tcache_hits;
  Obs.Counter.reset t.c_page_faults;
  Obs.Counter.reset t.c_ios

let resident_pages t = t.ram.Policy.size () * t.cfg.huge_size

(* Bring the huge page containing [hu] into RAM if absent, paying h
   IOs on a fault; returns its base frame. *)
let ensure_resident t hu =
  match t.ram.Policy.access hu with
  | Policy.Hit -> Int_table.find_exn t.frame_of hu
  | Policy.Miss { evicted } ->
    (match evicted with
     | None -> ()
     | Some victim ->
       let base = Int_table.find_exn t.frame_of victim in
       ignore (Int_table.remove t.frame_of victim);
       Buddy.free t.buddy ~base ~order:t.huge_shift;
       Obs.Trace.record t.tr Obs.Event.Eviction victim hu;
       (* The victim's translation is stale: shoot it down (free) —
          in the cache-resident tier too, or it would keep serving a
          dead mapping. *)
       ignore (Atp_tlb.Tlb.invalidate t.tlb victim);
       (match t.tcache with
        | Some tc -> ignore (Atp_tlb.Tlb.invalidate tc victim)
        | None -> ()));
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

(* A TLB insert's victim falls into the cache-resident victim store
   instead of vanishing (Victima caches TLB-evicted PTEs). *)
let fill_tlb t hu base =
  match (Atp_tlb.Tlb.insert t.tlb hu base, t.tcache) with
  | Some (victim, victim_base), Some tc ->
    ignore (Atp_tlb.Tlb.insert tc victim victim_base)
  | (Some _ | None), _ -> ()

let access t vpage =
  if vpage < 0 then invalid_arg "Machine.access: negative page";
  let hu = vpage lsr t.huge_shift in
  match Atp_tlb.Tlb.lookup t.tlb hu with
  | Some _base ->
    (* TLB hit implies residency (entries are shot down on eviction),
       but RAM recency must still see the access, as the paper's
       simulator does — otherwise the RAM LRU order would be driven
       only by TLB misses. *)
    (match t.ram.Policy.access hu with
     | Policy.Hit -> ()
     | Policy.Miss _ -> assert false);
    Obs.Counter.incr t.c_accesses;
    Obs.Counter.incr t.c_tlb_hits
  | None ->
    Obs.Counter.incr t.c_accesses;
    Obs.Counter.incr t.c_tlb_misses;
    (match t.tcache with
     | Some tc when Atp_tlb.Tlb.mem tc hu ->
       (* Recovered from the cache hierarchy: still a TLB miss, but a
          cheap one (the ledger bills it as [cheap], not [tlb]).  A
          tcache entry implies residency — eviction shoots the tier
          down — so no IO can be due. *)
       Obs.Counter.incr t.c_tcache_hits;
       let base =
         match Atp_tlb.Tlb.lookup tc hu with
         | Some base -> base
         | None -> assert false
       in
       (match t.ram.Policy.access hu with
        | Policy.Hit -> ()
        | Policy.Miss _ -> assert false);
       (* Exclusive: the recovered translation migrates back up. *)
       ignore (Atp_tlb.Tlb.invalidate tc hu);
       fill_tlb t hu base
     | Some _ | None ->
       let base = ensure_resident t hu in
       fill_tlb t hu base)

let run ?warmup t trace =
  (match warmup with
   | Some w -> Array.iter (access t) w
   | None -> ());
  reset_counters t;
  Atp_tlb.Tlb.reset_stats t.tlb;
  Array.iter (access t) trace;
  counters t

let pp_counters ppf c =
  Format.fprintf ppf
    "accesses=%a tlb-hits=%a tlb-misses=%a tcache-hits=%a faults=%a ios=%a"
    Stats.pp_count c.accesses Stats.pp_count c.tlb_hits Stats.pp_count
    c.tlb_misses Stats.pp_count c.tcache_hits Stats.pp_count c.page_faults
    Stats.pp_count c.ios
