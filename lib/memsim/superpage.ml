open Atp_util

type config = {
  ram_pages : int;
  base_tlb_entries : int;
  huge_tlb_entries : int;
  huge_size : int;
}

type counters = {
  accesses : int;
  tlb_misses : int;
  ios : int;
  faults : int;
  reservations : int;
  promotions : int;
  preemptions : int;
  huge_evictions : int;
}

let zero =
  {
    accesses = 0;
    tlb_misses = 0;
    ios = 0;
    faults = 0;
    reservations = 0;
    promotions = 0;
    preemptions = 0;
    huge_evictions = 0;
  }

type reservation = {
  base_frame : int;
  populated : Bitvec.t;
  mutable count : int;
}

(* LRU unit ids: partial reservation r -> 3r, promoted region r ->
   3r+1, base page v -> 3v+2. *)
let partial_unit r = 3 * r

let promoted_unit r = (3 * r) + 1

let base_unit v = (3 * v) + 2

type t = {
  cfg : config;
  huge_shift : int;
  buddy : Buddy.t;
  partial : reservation Int_table.Poly.t;  (* region -> reservation *)
  partial_order : Page_list.t;  (* regions, oldest at back: preemption order *)
  promoted : Int_table.t;  (* region -> base frame *)
  base_frames : Int_table.t;  (* vpage -> frame *)
  lru : Page_list.t;  (* mixed unit ids *)
  tlb : int Atp_tlb.Split.t;
  mutable counters : counters;
}

let create cfg =
  let huge_shift =
    match Buddy.order_of_size cfg.huge_size with
    | Some s when s >= 1 -> s
    | _ -> invalid_arg "Superpage.create: huge_size must be a power of two >= 2"
  in
  if cfg.ram_pages < cfg.huge_size then
    invalid_arg "Superpage.create: RAM smaller than one superpage";
  {
    cfg;
    huge_shift;
    buddy = Buddy.create ~frames:cfg.ram_pages;
    partial = Int_table.Poly.create ~initial_capacity:64 ();
    partial_order = Page_list.create ();
    promoted = Int_table.create ();
    base_frames = Int_table.create ();
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

let counters t = t.counters

let reset_counters t = t.counters <- zero

let resident_pages t =
  Int_table.length t.base_frames
  + (Int_table.length t.promoted * t.cfg.huge_size)
  + Int_table.Poly.fold (fun _ res acc -> acc + res.count) t.partial 0

let reserved_unused_frames t =
  Int_table.Poly.fold
    (fun _ res acc -> acc + (t.cfg.huge_size - res.count))
    t.partial 0

let promoted_regions t = Int_table.length t.promoted

let region_of t v = v lsr t.huge_shift

(* Preempt a partial reservation: unused frames return to the buddy;
   populated pages become ordinary base pages at their current frames
   (no copying — that is the scheme's advantage over THP). *)
let preempt t r =
  match Int_table.Poly.find t.partial r with
  | None -> ()
  | Some res ->
    ignore (Int_table.Poly.remove t.partial r);
    ignore (Page_list.remove t.partial_order r);
    ignore (Page_list.remove t.lru (partial_unit r));
    let base_v = r lsl t.huge_shift in
    for off = 0 to t.cfg.huge_size - 1 do
      if Bitvec.get res.populated off then begin
        Int_table.set t.base_frames (base_v + off) (res.base_frame + off);
        Page_list.push_front t.lru (base_unit (base_v + off))
      end
      else
        (* An unused frame inside the reservation block: free it
           individually. *)
        Buddy.free t.buddy ~base:(res.base_frame + off) ~order:0
    done;
    t.counters <- { t.counters with preemptions = t.counters.preemptions + 1 }

(* A reservation is one aligned order-[huge_shift] block, immediately
   re-registered as singles so preemption can free the unused slots
   piecemeal while populated pages keep their frames (no copying). *)
let alloc_reservation_block t =
  match Buddy.alloc t.buddy ~order:t.huge_shift with
  | None -> None
  | Some base ->
    Buddy.split_allocated t.buddy ~base ~order:t.huge_shift;
    Some base

let evict_lru_unit t =
  match Page_list.pop_back t.lru with
  | None -> failwith "Superpage: nothing to evict"
  | Some unit_id ->
    let kind = unit_id mod 3 in
    let id = unit_id / 3 in
    if kind = 0 then
      (* Least-recently-used partial reservation: preempt it (frees
         its unused frames) rather than dropping resident data. *)
      preempt t id
    else if kind = 1 then begin
      let base = Int_table.find_exn t.promoted id in
      ignore (Int_table.remove t.promoted id);
      for off = 0 to t.cfg.huge_size - 1 do
        Buddy.free t.buddy ~base:(base + off) ~order:0
      done;
      Atp_tlb.Split.invalidate_page t.tlb (id lsl t.huge_shift);
      t.counters <-
        { t.counters with huge_evictions = t.counters.huge_evictions + 1 }
    end
    else begin
      let frame = Int_table.find_exn t.base_frames id in
      ignore (Int_table.remove t.base_frames id);
      Buddy.free t.buddy ~base:frame ~order:0;
      Atp_tlb.Split.invalidate_page t.tlb id
    end

(* Promoted blocks are freed as singles (see above), so they are
   allocated as singles too; track them via Int_table only. *)

let rec alloc_single_with_pressure t =
  match Buddy.alloc t.buddy ~order:0 with
  | Some f -> f
  | None ->
    evict_lru_unit t;
    alloc_single_with_pressure t

let fault_io t =
  t.counters <-
    { t.counters with
      ios = t.counters.ios + 1;
      faults = t.counters.faults + 1 }

let populate t r res off =
  Bitvec.set res.populated off;
  res.count <- res.count + 1;
  fault_io t;
  if res.count = t.cfg.huge_size then begin
    (* Fully populated: promotion is free (already contiguous). *)
    ignore (Int_table.Poly.remove t.partial r);
    ignore (Page_list.remove t.partial_order r);
    ignore (Page_list.remove t.lru (partial_unit r));
    Int_table.set t.promoted r res.base_frame;
    Page_list.push_front t.lru (promoted_unit r);
    let base_v = r lsl t.huge_shift in
    (* Shoot down the constituents' base entries. *)
    for v = base_v to base_v + t.cfg.huge_size - 1 do
      Atp_tlb.Split.invalidate_page t.tlb v
    done;
    ignore
      (Atp_tlb.Split.insert t.tlb ~shift:t.huge_shift base_v res.base_frame);
    t.counters <- { t.counters with promotions = t.counters.promotions + 1 }
  end

let try_reserve t r =
  match alloc_reservation_block t with
  | Some base -> Some base
  | None ->
    (* Preempt the oldest partial reservation and retry once. *)
    (match Page_list.back t.partial_order with
     | Some oldest when oldest <> r ->
       preempt t oldest;
       alloc_reservation_block t
     | Some _ | None -> None)

let access t v =
  if v < 0 then invalid_arg "Superpage.access: negative page";
  t.counters <- { t.counters with accesses = t.counters.accesses + 1 };
  let r = region_of t v in
  match Atp_tlb.Split.lookup t.tlb v with
  | Some (_, shift) ->
    let unit_id =
      if shift = 0 then
        if Int_table.Poly.mem t.partial r then partial_unit r else base_unit v
      else promoted_unit r
    in
    if Page_list.mem t.lru unit_id then Page_list.move_to_front t.lru unit_id
  | None ->
    t.counters <- { t.counters with tlb_misses = t.counters.tlb_misses + 1 };
    (match Int_table.find t.promoted r with
     | Some base ->
       ignore
         (Atp_tlb.Split.insert t.tlb ~shift:t.huge_shift (r lsl t.huge_shift)
            base);
       Page_list.move_to_front t.lru (promoted_unit r)
     | None ->
       (match Int_table.Poly.find t.partial r with
        | Some res ->
          let off = v land (t.cfg.huge_size - 1) in
          if not (Bitvec.get res.populated off) then populate t r res off;
          (* After promotion the huge entry covers v; otherwise fill a
             base entry. *)
          if Int_table.mem t.promoted r then
            Page_list.move_to_front t.lru (promoted_unit r)
          else begin
            ignore
              (Atp_tlb.Split.insert t.tlb ~shift:0 v (res.base_frame + off));
            Page_list.move_to_front t.lru (partial_unit r)
          end
        | None ->
          (match Int_table.find t.base_frames v with
           | Some frame ->
             ignore (Atp_tlb.Split.insert t.tlb ~shift:0 v frame);
             Page_list.move_to_front t.lru (base_unit v)
           | None ->
             (* First touch of the region: try to reserve. *)
             (match try_reserve t r with
              | Some base ->
                let res =
                  {
                    base_frame = base;
                    populated = Bitvec.create t.cfg.huge_size;
                    count = 0;
                  }
                in
                Int_table.Poly.set t.partial r res;
                Page_list.push_front t.partial_order r;
                Page_list.push_front t.lru (partial_unit r);
                t.counters <-
                  { t.counters with reservations = t.counters.reservations + 1 };
                let off = v land (t.cfg.huge_size - 1) in
                populate t r res off;
                if not (Int_table.mem t.promoted r) then
                  ignore
                    (Atp_tlb.Split.insert t.tlb ~shift:0 v (base + off))
              | None ->
                (* No contiguous block available: plain base page. *)
                let frame = alloc_single_with_pressure t in
                Int_table.set t.base_frames v frame;
                Page_list.push_front t.lru (base_unit v);
                fault_io t;
                ignore (Atp_tlb.Split.insert t.tlb ~shift:0 v frame)))))

let run ?warmup t trace =
  (match warmup with
   | Some w -> Array.iter (access t) w
   | None -> ());
  reset_counters t;
  Array.iter (access t) trace;
  counters t

let ledger c = { Atp_obs.Cost.zero with ios = c.ios; tlb = c.tlb_misses }
