type 'a t = {
  asid_bits : int;
  vpage_bits : int;
  tlb : 'a Tlb.t;
}

let create ?(asid_bits = 12) ~entries () =
  if asid_bits < 1 || asid_bits > 20 then invalid_arg "Asid.create: bad asid_bits";
  (* Keys combine asid and vpage in one int: vpage gets the rest of the
     62 usable bits. *)
  { asid_bits; vpage_bits = 62 - asid_bits; tlb = Tlb.create ~entries () }

let max_asid t = (1 lsl t.asid_bits) - 1

let key t ~asid vpage =
  if asid < 0 || asid > max_asid t then invalid_arg "Asid: asid out of range";
  if vpage < 0 || vpage >= 1 lsl t.vpage_bits then
    invalid_arg "Asid: vpage out of range";
  (asid lsl t.vpage_bits) lor vpage

let split_key t k = (k lsr t.vpage_bits, k land ((1 lsl t.vpage_bits) - 1))

let lookup t ~asid vpage = Tlb.lookup t.tlb (key t ~asid vpage)

let insert t ~asid vpage payload =
  Option.map
    (fun (k, p) ->
      let a, v = split_key t k in
      (a, v, p))
    (Tlb.insert t.tlb (key t ~asid vpage) payload)

let invalidate t ~asid vpage = Tlb.invalidate t.tlb (key t ~asid vpage)

let flush_asid t asid =
  if asid < 0 || asid > max_asid t then invalid_arg "Asid.flush_asid: bad asid";
  let doomed = ref [] in
  Tlb.iter
    (fun k _ -> if fst (split_key t k) = asid then doomed := k :: !doomed)
    t.tlb;
  List.iter (fun k -> ignore (Tlb.invalidate t.tlb k)) !doomed;
  List.length !doomed

let flush_all t = Tlb.flush t.tlb

module Allocator = struct
  (* Linux-style lazy ASID recycling: a freed id is handed out again
     only after a whole-TLB flush has run since it was freed, so reuse
     never needs a per-id flush on the allocation path.  Ids freed
     since the last flush sit in [dirty]; a generation rollover flushes
     everything and promotes them to [clean] in one step. *)
  type 'a alloc = {
    tlb : 'a t;
    mutable fresh : int;  (* never allocated this generation *)
    mutable clean : int list;  (* freed, then covered by a flush *)
    mutable dirty : int list;  (* freed since the last flush *)
    mutable live : int;
    mutable generation : int;
  }

  let create tlb =
    { tlb; fresh = 0; clean = []; dirty = []; live = 0; generation = 0 }

  let capacity a = max_asid a.tlb + 1

  let live a = a.live

  let generation a = a.generation

  let allocate a =
    let asid =
      if a.fresh <= max_asid a.tlb then begin
        let id = a.fresh in
        a.fresh <- id + 1;
        id
      end
      else
        match a.clean with
        | id :: rest ->
          a.clean <- rest;
          id
        | [] -> (
          match a.dirty with
          | [] -> invalid_arg "Asid.Allocator.allocate: address-space ids exhausted"
          | _ :: _ ->
            (* Generation rollover: one flush launders every freed id
               at once.  Dirty ids were freed in LIFO order; sort so
               the hand-out order is a function of the set, not of the
               free order, keeping sharded replays deterministic. *)
            flush_all a.tlb;
            a.generation <- a.generation + 1;
            a.clean <- List.sort Int.compare a.dirty;
            a.dirty <- [];
            (match a.clean with
            | id :: rest ->
              a.clean <- rest;
              id
            | [] -> assert false))
    in
    a.live <- a.live + 1;
    asid

  let free a asid =
    if asid < 0 || asid > max_asid a.tlb then
      invalid_arg "Asid.Allocator.free: bad asid";
    a.live <- a.live - 1;
    a.dirty <- asid :: a.dirty
end

let per_asid_share t =
  let counts = Atp_util.Int_table.create ~initial_capacity:16 () in
  Tlb.iter
    (fun k _ ->
      let a = fst (split_key t k) in
      Atp_util.Int_table.set counts a
        (1 + Option.value (Atp_util.Int_table.find counts a) ~default:0))
    t.tlb;
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Atp_util.Int_table.fold (fun a c acc -> (a, c) :: acc) counts [])
