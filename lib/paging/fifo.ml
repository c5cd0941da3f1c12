open Atp_util

type t = { slots : Slots.t; order : Lru_list.t }

let name = "fifo"

let create ?rng ~capacity () =
  ignore rng;
  { slots = Slots.create capacity; order = Lru_list.create capacity }

let capacity t = Slots.capacity t.slots

let size t = Slots.size t.slots

let mem t page = Slots.find_slot t.slots page >= 0

(* The allocation-free primitive; [access] is its boxed view, so the
   two paths share one state evolution by construction. *)
let access_fast t page =
  if Slots.find_slot t.slots page >= 0 then Policy.fast_hit
  else begin
    let evicted =
      if Slots.is_full t.slots then begin
        let victim_slot = Lru_list.take_back t.order in
        if victim_slot < 0 then assert false;
        Slots.release t.slots victim_slot
      end
      else Policy.fast_miss_free
    in
    let slot = Slots.alloc t.slots page in
    Lru_list.push_front t.order slot;
    evicted
  end

let access t page = Policy.outcome_of_fast (access_fast t page)

let remove t page =
  let slot = Slots.find_slot t.slots page in
  if slot >= 0 then begin
    Lru_list.remove t.order slot;
    ignore (Slots.release t.slots slot);
    true
  end
  else false

let resident t = Slots.resident t.slots
