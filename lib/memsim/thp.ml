open Atp_util

type config = {
  ram_pages : int;
  base_tlb_entries : int;
  huge_tlb_entries : int;
  huge_size : int;
  promote_fraction : float;
  max_compaction_evictions : int;
}

let default_config =
  {
    ram_pages = 1 lsl 18;
    base_tlb_entries = 1536;
    huge_tlb_entries = 16;
    huge_size = 512;
    promote_fraction = 0.9;
    max_compaction_evictions = 64;
  }

type counters = {
  accesses : int;
  tlb_misses : int;
  ios : int;
  faults : int;
  promotions : int;
  promotion_fill_ios : int;
  compaction_evictions : int;
  huge_evictions : int;
}

let zero =
  {
    accesses = 0;
    tlb_misses = 0;
    ios = 0;
    faults = 0;
    promotions = 0;
    promotion_fill_ios = 0;
    compaction_evictions = 0;
    huge_evictions = 0;
  }

(* LRU units are base pages and promoted regions, distinguished in one
   id space: base page v -> 2v, promoted region r -> 2r + 1. *)
let base_unit v = 2 * v

let huge_unit r = (2 * r) + 1

type t = {
  cfg : config;
  huge_shift : int;
  buddy : Buddy.t;
  frame_of_page : Int_table.t;  (* resident base page -> frame *)
  frame_of_region : Int_table.t;  (* promoted region -> base frame *)
  resident_in_region : Int_table.t;  (* region -> resident base pages *)
  lru : Page_list.t;  (* front = MRU; mixed unit ids *)
  tlb : int Atp_tlb.Split.t;
  mutable counters : counters;
}

let create cfg =
  let huge_shift =
    match Buddy.order_of_size cfg.huge_size with
    | Some s when s >= 1 -> s
    | _ -> invalid_arg "Thp.create: huge_size must be a power of two >= 2"
  in
  if cfg.ram_pages < cfg.huge_size then
    invalid_arg "Thp.create: RAM smaller than one huge page";
  if cfg.promote_fraction <= 0.0 || cfg.promote_fraction > 1.0 then
    invalid_arg "Thp.create: bad promote_fraction";
  {
    cfg;
    huge_shift;
    buddy = Buddy.create ~frames:cfg.ram_pages;
    frame_of_page = Int_table.create ();
    frame_of_region = Int_table.create ();
    resident_in_region = Int_table.create ();
    lru = Page_list.create ();
    tlb =
      Atp_tlb.Split.create
        ~levels:
          [
            { Atp_tlb.Split.shift = 0; entries = cfg.base_tlb_entries };
            { Atp_tlb.Split.shift = huge_shift; entries = cfg.huge_tlb_entries };
          ]
        ();
    counters = zero;
  }

let config t = t.cfg

let counters t = t.counters

let reset_counters t = t.counters <- zero

let resident_pages t =
  Int_table.length t.frame_of_page
  + (Int_table.length t.frame_of_region * t.cfg.huge_size)

let promoted_regions t = Int_table.length t.frame_of_region

let region_of t v = v lsr t.huge_shift

let bump_region t r delta =
  let count = Option.value (Int_table.find t.resident_in_region r) ~default:0 in
  let count = count + delta in
  if count = 0 then ignore (Int_table.remove t.resident_in_region r)
  else Int_table.set t.resident_in_region r count;
  count

(* Evict one LRU unit, freeing its frames and shooting down its
   translations.  Returns how many base pages went away. *)
let evict_lru_unit t =
  match Page_list.pop_back t.lru with
  | None -> failwith "Thp: nothing left to evict"
  | Some unit_id ->
    if unit_id land 1 = 0 then begin
      let v = unit_id / 2 in
      let frame = Int_table.find_exn t.frame_of_page v in
      ignore (Int_table.remove t.frame_of_page v);
      ignore (bump_region t (region_of t v) (-1));
      Buddy.free t.buddy ~base:frame ~order:0;
      Atp_tlb.Split.invalidate_page t.tlb v;
      1
    end
    else begin
      let r = unit_id / 2 in
      let frame = Int_table.find_exn t.frame_of_region r in
      ignore (Int_table.remove t.frame_of_region r);
      Buddy.free t.buddy ~base:frame ~order:t.huge_shift;
      Atp_tlb.Split.invalidate_page t.tlb (r lsl t.huge_shift);
      t.counters <- { t.counters with huge_evictions = t.counters.huge_evictions + 1 };
      t.cfg.huge_size
    end

let rec alloc_with_pressure t ~order =
  match Buddy.alloc t.buddy ~order with
  | Some base -> base
  | None ->
    ignore (evict_lru_unit t);
    alloc_with_pressure t ~order

(* Try to promote region r: needs an aligned order-[huge_shift] block;
   compaction may evict up to the configured budget of LRU units.
   Missing constituents are fetched (promotion_fill IOs); the region
   becomes a single LRU unit. *)
let try_promote t r =
  let resident = Option.value (Int_table.find t.resident_in_region r) ~default:0 in
  let threshold =
    int_of_float (ceil (t.cfg.promote_fraction *. float_of_int t.cfg.huge_size))
  in
  if resident < threshold || Int_table.mem t.frame_of_region r then ()
  else begin
    (* The region's own base frames are freed before allocating, so
       promotion of a fully resident region cannot deadlock on its own
       memory.  (A real kernel migrates; freeing models the same
       space.) *)
    let base_v = r lsl t.huge_shift in
    let freed = ref 0 in
    for v = base_v to base_v + t.cfg.huge_size - 1 do
      match Int_table.find t.frame_of_page v with
      | Some frame ->
        ignore (Int_table.remove t.frame_of_page v);
        ignore (Page_list.remove t.lru (base_unit v));
        ignore (bump_region t r (-1));
        Buddy.free t.buddy ~base:frame ~order:0;
        Atp_tlb.Split.invalidate_page t.tlb v;
        incr freed
      | None -> ()
    done;
    (* Compact under a budget. *)
    let evictions = ref 0 in
    let rec alloc_huge () =
      match Buddy.alloc t.buddy ~order:t.huge_shift with
      | Some base -> Some base
      | None ->
        if !evictions >= t.cfg.max_compaction_evictions
           || Page_list.is_empty t.lru
        then None
        else begin
          evictions := !evictions + evict_lru_unit t;
          alloc_huge ()
        end
    in
    match alloc_huge () with
    | None ->
      (* Give up: restore the freed pages as base pages at new frames
         (the data never left RAM, so no IO is charged). *)
      t.counters <-
        { t.counters with compaction_evictions = t.counters.compaction_evictions + !evictions };
      let restored = ref 0 in
      for v = base_v to base_v + t.cfg.huge_size - 1 do
        if !restored < !freed && not (Int_table.mem t.frame_of_page v) then begin
          let frame = alloc_with_pressure t ~order:0 in
          Int_table.set t.frame_of_page v frame;
          Page_list.push_front t.lru (base_unit v);
          ignore (bump_region t r 1);
          incr restored
        end
      done
    | Some base ->
      let missing = t.cfg.huge_size - !freed in
      Int_table.set t.frame_of_region r base;
      Page_list.push_front t.lru (huge_unit r);
      ignore (Atp_tlb.Split.insert t.tlb ~shift:t.huge_shift base_v base);
      t.counters <-
        {
          t.counters with
          promotions = t.counters.promotions + 1;
          promotion_fill_ios = t.counters.promotion_fill_ios + missing;
          ios = t.counters.ios + missing;
          compaction_evictions =
            t.counters.compaction_evictions + !evictions;
        }
  end

let access t v =
  if v < 0 then invalid_arg "Thp.access: negative page";
  let c = t.counters in
  t.counters <- { c with accesses = c.accesses + 1 };
  match Atp_tlb.Split.lookup t.tlb v with
  | Some (_, shift) ->
    (* Touch the covering unit. *)
    let unit_id =
      if shift = 0 then base_unit v else huge_unit (region_of t v)
    in
    if Page_list.mem t.lru unit_id then Page_list.move_to_front t.lru unit_id
  | None ->
    t.counters <- { t.counters with tlb_misses = t.counters.tlb_misses + 1 };
    let r = region_of t v in
    (match Int_table.find t.frame_of_region r with
     | Some base ->
       (* Promoted region, TLB just didn't have it. *)
       ignore
         (Atp_tlb.Split.insert t.tlb ~shift:t.huge_shift (r lsl t.huge_shift) base);
       Page_list.move_to_front t.lru (huge_unit r)
     | None ->
       (match Int_table.find t.frame_of_page v with
        | Some frame ->
          ignore (Atp_tlb.Split.insert t.tlb ~shift:0 v frame);
          Page_list.move_to_front t.lru (base_unit v)
        | None ->
          (* Page fault at base granularity. *)
          let frame = alloc_with_pressure t ~order:0 in
          Int_table.set t.frame_of_page v frame;
          Page_list.push_front t.lru (base_unit v);
          ignore (bump_region t r 1);
          ignore (Atp_tlb.Split.insert t.tlb ~shift:0 v frame);
          t.counters <-
            { t.counters with
              ios = t.counters.ios + 1;
              faults = t.counters.faults + 1 };
          try_promote t r))

let run ?warmup t trace =
  (match warmup with
   | Some w -> Array.iter (access t) w
   | None -> ());
  reset_counters t;
  Array.iter (access t) trace;
  counters t

let ledger c = { Atp_obs.Cost.zero with ios = c.ios; tlb = c.tlb_misses }

let pp_counters ppf c =
  Format.fprintf ppf
    "accesses=%a tlb-misses=%a ios=%a faults=%a promotions=%a fill-ios=%a \
     compaction-evictions=%a huge-evictions=%a"
    Stats.pp_count c.accesses Stats.pp_count c.tlb_misses Stats.pp_count c.ios
    Stats.pp_count c.faults Stats.pp_count c.promotions Stats.pp_count
    c.promotion_fill_ios Stats.pp_count c.compaction_evictions Stats.pp_count
    c.huge_evictions
