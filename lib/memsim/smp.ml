open Atp_util
open Atp_paging

type config = {
  cores : int;
  ram_pages : int;
  tlb_entries_per_core : int;
  huge_size : int;
  tcache_entries : int;
}

let default_config =
  {
    cores = 4;
    ram_pages = 1 lsl 18;
    tlb_entries_per_core = 384;
    huge_size = 1;
    tcache_entries = 0;
  }

type counters = {
  accesses : int;
  tlb_misses : int;
  tcache_hits : int;
  ios : int;
  shootdown_events : int;
  ipis : int;
}

let zero =
  {
    accesses = 0;
    tlb_misses = 0;
    tcache_hits = 0;
    ios = 0;
    shootdown_events = 0;
    ipis = 0;
  }

type t = {
  cfg : config;
  huge_shift : int;
  tlbs : int Atp_tlb.Tlb.t array;  (* per core: huge page -> base frame *)
  (* One shared cache-resident victim store (the LLC is shared, unlike
     the per-core TLBs): TLB-evicted translations from every core land
     here and any core can recover them.  [None] when disabled. *)
  tcache : int Atp_tlb.Tlb.t option;
  ram : Policy.instance;  (* shared residency of huge units *)
  frame_of : Int_table.t;
  buddy : Buddy.t;
  mutable counters : counters;
}

let log2_exact n =
  if n < 1 || n land (n - 1) <> 0 then None
  else begin
    let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
    Some (go 0 n)
  end

let create cfg =
  let huge_shift =
    match log2_exact cfg.huge_size with
    | Some s -> s
    | None -> invalid_arg "Smp.create: huge_size must be a power of two"
  in
  if cfg.cores < 1 then invalid_arg "Smp.create: need at least one core";
  if cfg.tcache_entries < 0 then
    invalid_arg "Smp.create: negative tcache_entries";
  let huge_frames = cfg.ram_pages / cfg.huge_size in
  if huge_frames < 1 then invalid_arg "Smp.create: RAM too small";
  {
    cfg;
    huge_shift;
    tlbs =
      Array.init cfg.cores (fun _ ->
          Atp_tlb.Tlb.create ~entries:cfg.tlb_entries_per_core ());
    tcache =
      (if cfg.tcache_entries > 0 then
         Some (Atp_tlb.Tlb.create ~entries:cfg.tcache_entries ())
       else None);
    ram = Policy.instantiate (module Lru) ~capacity:huge_frames ();
    frame_of = Int_table.create ();
    buddy = Buddy.create ~frames:cfg.ram_pages;
    counters = zero;
  }

let counters t = t.counters

let reset_counters t = t.counters <- zero

(* Invalidate a victim's translation on every core; remote cores that
   held it receive an IPI (the initiator flushes locally for free).
   The shared cache-resident tier is shot down too — a reach-extended
   system that skipped this would serve dead mappings after the unmap
   (no IPI: the store is shared, so one local invalidation covers every
   core). *)
let shootdown t ~initiator hu =
  let remote = ref 0 in
  let local = ref false in
  Array.iteri
    (fun core tlb ->
      if Atp_tlb.Tlb.invalidate tlb hu then
        if core = initiator then local := true else incr remote)
    t.tlbs;
  let in_tcache =
    match t.tcache with
    | Some tc -> Atp_tlb.Tlb.invalidate tc hu
    | None -> false
  in
  if !remote > 0 || !local || in_tcache then
    t.counters <-
      {
        t.counters with
        shootdown_events = t.counters.shootdown_events + 1;
        ipis = t.counters.ipis + !remote;
      }

let ensure_resident t ~initiator hu =
  match t.ram.Policy.access hu with
  | Policy.Hit -> Int_table.find_exn t.frame_of hu
  | Policy.Miss { evicted } ->
    (match evicted with
     | None -> ()
     | Some victim ->
       let base = Int_table.find_exn t.frame_of victim in
       ignore (Int_table.remove t.frame_of victim);
       Buddy.free t.buddy ~base ~order:t.huge_shift;
       shootdown t ~initiator victim);
    let base =
      match Buddy.alloc t.buddy ~order:t.huge_shift with
      | Some base -> base
      | None -> assert false
    in
    Int_table.set t.frame_of hu base;
    t.counters <- { t.counters with ios = t.counters.ios + t.cfg.huge_size };
    base

(* Fill one core's TLB; the evicted translation falls into the shared
   cache-resident store rather than vanishing (Victima: TLB-evicted
   PTEs are cached in the LLC). *)
let fill_tlb t tlb hu base =
  match (Atp_tlb.Tlb.insert tlb hu base, t.tcache) with
  | Some (victim, victim_base), Some tc ->
    ignore (Atp_tlb.Tlb.insert tc victim victim_base)
  | (Some _ | None), _ -> ()

let access t ~core vpage =
  if core < 0 || core >= t.cfg.cores then invalid_arg "Smp.access: bad core";
  if vpage < 0 then invalid_arg "Smp.access: negative page";
  let hu = vpage lsr t.huge_shift in
  let tlb = t.tlbs.(core) in
  t.counters <- { t.counters with accesses = t.counters.accesses + 1 };
  match Atp_tlb.Tlb.lookup tlb hu with
  | Some _ ->
    (* Keep shared-RAM recency in step with every access (a TLB hit on
       any core still touches the page). *)
    (match t.ram.Policy.access hu with
     | Policy.Hit -> ()
     | Policy.Miss _ -> assert false)
  | None ->
    t.counters <- { t.counters with tlb_misses = t.counters.tlb_misses + 1 };
    (match t.tcache with
     | Some tc when Atp_tlb.Tlb.mem tc hu ->
       (* Recovered from the shared store: a cheap miss (tcache_ε, not
          ε), and an entry implies residency because shootdowns
          invalidate the store. *)
       t.counters <-
         { t.counters with tcache_hits = t.counters.tcache_hits + 1 };
       let base =
         match Atp_tlb.Tlb.lookup tc hu with
         | Some base -> base
         | None -> assert false
       in
       (match t.ram.Policy.access hu with
        | Policy.Hit -> ()
        | Policy.Miss _ -> assert false);
       ignore (Atp_tlb.Tlb.invalidate tc hu);
       fill_tlb t tlb hu base
     | Some _ | None ->
       let base = ensure_resident t ~initiator:core hu in
       fill_tlb t tlb hu base)

let ledger c =
  { Atp_obs.Cost.zero with
    ios = c.ios; tlb = c.tlb_misses - c.tcache_hits; cheap = c.tcache_hits;
    ipis = c.ipis }

let run_with assign ?warmup t trace =
  (match warmup with
   | Some w -> Array.iteri (fun i page -> access t ~core:(assign t i page) page) w
   | None -> ());
  reset_counters t;
  Array.iteri (fun i page -> access t ~core:(assign t i page) page) trace;
  counters t

let run_shared ?warmup t trace =
  run_with (fun t i _page -> i mod t.cfg.cores) ?warmup t trace

let run_partitioned ?warmup t trace =
  run_with
    (fun t _i page -> Hashing.hash_in ~seed:0x5135 t.cfg.cores (page lsr t.huge_shift))
    ?warmup t trace

let pp_counters ppf c =
  Format.fprintf ppf
    "accesses=%a tlb-misses=%a tcache-hits=%a ios=%a shootdowns=%a ipis=%a"
    Stats.pp_count c.accesses Stats.pp_count c.tlb_misses Stats.pp_count
    c.tcache_hits Stats.pp_count c.ios Stats.pp_count c.shootdown_events
    Stats.pp_count c.ipis
