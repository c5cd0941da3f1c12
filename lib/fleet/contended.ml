module Obs = Atp_obs
module Engine = Atp_engine.Engine
module Asid = Atp_tlb.Asid
module Lru = Atp_paging.Lru
module Policy = Atp_paging.Policy

type qos =
  | Shared
  | Reserved of { tlb_entries : int; ram_frames : int }

type config = {
  tlb_entries : int;
  ram_frames : int;
  asid_bits : int;
  page_bits : int;
}

let default =
  { tlb_entries = 64; ram_frames = 1024; asid_bits = 8; page_bits = 24 }

let validate cfg =
  if cfg.tlb_entries < 1 then invalid_arg "Contended: tlb_entries must be >= 1";
  if cfg.ram_frames < 1 then invalid_arg "Contended: ram_frames must be >= 1";
  if cfg.asid_bits < 1 || cfg.asid_bits > 20 then
    invalid_arg "Contended: asid_bits must be in 1..20";
  if cfg.page_bits < 1 || cfg.page_bits > 40 then
    invalid_arg "Contended: page_bits must be in 1..40"

type tenant_stats = {
  tenant : int;
  accesses : int;
  tlb_fills : int;
  ios : int;
}

let ledger s = { Obs.Cost.zero with ios = s.ios; tlb = s.tlb_fills }

type result = {
  stats : tenant_stats list;
  leaks : int;
  rollovers : int;
  peak_active : int;
}

(* Mutable per-tenant accumulator; [asid]/[tlb]/[ram] depend on the
   QoS mode. *)
type 'res tenant = {
  mutable t_accesses : int;
  mutable t_fills : int;
  mutable t_ios : int;
  res : 'res;
}

let finalize id t = {
  tenant = id;
  accesses = t.t_accesses;
  tlb_fills = t.t_fills;
  ios = t.t_ios;
}

let by_tenant (a : tenant_stats) b = Int.compare a.tenant b.tenant

(* One LRU access: a lookup plus an insert on a miss, as one state
   change.  [true] on a hit. *)
let hit set page = Policy.fast_is_hit (Lru.access_fast set page)

(* One sequential pass: per-event callbacks close over the mode's
   machine state; done-stats collect at departure or end of stream. *)
let drive ~on_arrive ~on_access ~on_depart (table : _ Tenant_table.t) source =
  let out = ref [] in
  let get tenant =
    if tenant < 0 then invalid_arg "Contended: negative tenant id";
    match Tenant_table.find table tenant with
    | Some t -> t
    | None ->
      let t = on_arrive tenant in
      Tenant_table.set table tenant t;
      t
  in
  let finished = ref false in
  while not !finished do
    match source () with
    | None -> finished := true
    | Some (Engine.Tarrive { tenant }) -> ignore (get tenant)
    | Some (Engine.Taccess { tenant; page }) ->
      let t = get tenant in
      t.t_accesses <- t.t_accesses + 1;
      on_access tenant t page
    | Some (Engine.Tdepart { tenant }) -> (
      match Tenant_table.find table tenant with
      | None -> ()
      | Some t ->
        on_depart tenant t;
        ignore (Tenant_table.remove table tenant);
        out := finalize tenant t :: !out)
  done;
  Tenant_table.iter (fun id t -> out := finalize id t :: !out) table;
  List.stable_sort by_tenant (List.rev !out)

let run ?obs cfg qos source =
  validate cfg;
  let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
  let c_accesses = Obs.Scope.counter obs "accesses"
  and c_fills = Obs.Scope.counter obs "tlb_fills"
  and c_ios = Obs.Scope.counter obs "ios"
  and c_leaks = Obs.Scope.counter obs "leaks" in
  let g_rollovers = Obs.Scope.gauge obs "rollovers"
  and g_peak = Obs.Scope.gauge obs "peak_active" in
  let leaks = ref 0 in
  let stats, rollovers, peak =
    match qos with
    | Shared ->
      (* One ASID-tagged TLB and one RAM, both global LRU: every
         tenant's misses are everyone's evictions. *)
      let tlb = Asid.create ~asid_bits:cfg.asid_bits ~entries:cfg.tlb_entries () in
      let alloc = Asid.Allocator.create tlb in
      (* RAM frames are keyed by (tenant, page): a dead tenant's pages
         can never be hit again and simply age out of the LRU — no
         scan on departure. *)
      let ram = Lru.create ~capacity:cfg.ram_frames () in
      let ram_key tenant page =
        if page < 0 || page >= 1 lsl cfg.page_bits then
          invalid_arg "Contended: page out of range";
        if tenant >= 1 lsl (61 - cfg.page_bits) then
          invalid_arg "Contended: tenant id out of range";
        (tenant lsl cfg.page_bits) lor page
      in
      let table : int tenant Tenant_table.t = Tenant_table.create () in
      let on_arrive _tenant =
        { t_accesses = 0; t_fills = 0; t_ios = 0;
          res = Asid.Allocator.allocate alloc }
      in
      let fill tenant t page =
        t.t_fills <- t.t_fills + 1;
        if not (hit ram (ram_key tenant page)) then t.t_ios <- t.t_ios + 1;
        ignore (Asid.insert tlb ~asid:t.res page tenant)
      in
      let on_access tenant t page =
        match Asid.lookup tlb ~asid:t.res page with
        | Some owner when owner = tenant -> ()
        | Some _ ->
          (* A recycled asid surfaced a dead tenant's translation.
             The allocator's rollover flush makes this unreachable;
             counted (and asserted zero in the tests) rather than
             trusted. *)
          incr leaks;
          ignore (Asid.invalidate tlb ~asid:t.res page);
          fill tenant t page
        | None -> fill tenant t page
      in
      let on_depart _tenant t = Asid.Allocator.free alloc t.res in
      let stats = drive ~on_arrive ~on_access ~on_depart table source in
      (stats, Asid.Allocator.generation alloc, Tenant_table.peak table)
    | Reserved { tlb_entries; ram_frames } ->
      if tlb_entries < 1 || ram_frames < 1 then
        invalid_arg "Contended: reserved shares must be >= 1";
      (* Full isolation: private TLB and RAM slices per tenant, same
         accounting — the QoS contrast to [Shared]. *)
      let table = Tenant_table.create () in
      let on_arrive _tenant =
        { t_accesses = 0; t_fills = 0; t_ios = 0;
          res =
            ( Lru.create ~capacity:tlb_entries (),
              Lru.create ~capacity:ram_frames () ) }
      in
      let on_access _tenant t page =
        let tlb, ram = t.res in
        if not (hit tlb page) then begin
          t.t_fills <- t.t_fills + 1;
          if not (hit ram page) then t.t_ios <- t.t_ios + 1
        end
      in
      let on_depart _tenant _t = () in
      let stats = drive ~on_arrive ~on_access ~on_depart table source in
      (stats, 0, Tenant_table.peak table)
  in
  List.iter
    (fun s ->
      Obs.Counter.add c_accesses s.accesses;
      Obs.Counter.add c_fills s.tlb_fills;
      Obs.Counter.add c_ios s.ios)
    stats;
  Obs.Counter.add c_leaks !leaks;
  Obs.Gauge.set_int g_rollovers rollovers;
  Obs.Gauge.set_int g_peak peak;
  { stats; leaks = !leaks; rollovers; peak_active = peak }
