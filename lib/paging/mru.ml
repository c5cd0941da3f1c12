open Atp_util

type t = { slots : Slots.t; order : Lru_list.t }

let name = "mru"

let create ?rng ~capacity () =
  ignore rng;
  { slots = Slots.create capacity; order = Lru_list.create capacity }

let capacity t = Slots.capacity t.slots

let size t = Slots.size t.slots

let mem t page = Slots.slot_of_page t.slots page <> None

let access t page =
  match Slots.slot_of_page t.slots page with
  | Some slot ->
    Lru_list.move_to_front t.order slot;
    Policy.Hit
  | None ->
    let evicted =
      if Slots.is_full t.slots then begin
        (* Evict the most recently used page: the list front. *)
        match Lru_list.front t.order with
        | None -> assert false
        | Some victim_slot ->
          Lru_list.remove t.order victim_slot;
          Some (Slots.release t.slots victim_slot)
      end
      else None
    in
    let slot = Slots.alloc t.slots page in
    Lru_list.push_front t.order slot;
    Policy.Miss { evicted }

let access_fast t page = Policy.fast_of_outcome (access t page)

let remove t page =
  match Slots.slot_of_page t.slots page with
  | None -> false
  | Some slot ->
    Lru_list.remove t.order slot;
    ignore (Slots.release t.slots slot);
    true

let resident t = Slots.resident t.slots
