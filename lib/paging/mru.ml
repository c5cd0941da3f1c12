open Atp_util

type t = { slots : Slots.t; order : Lru_list.t }

let name = "mru"

let create ?rng ~capacity () =
  ignore rng;
  { slots = Slots.create capacity; order = Lru_list.create capacity }

let capacity t = Slots.capacity t.slots

let size t = Slots.size t.slots

let mem t page = Slots.find_slot t.slots page >= 0

let access t page =
  let slot = Slots.find_slot t.slots page in
  if slot >= 0 then begin
    Lru_list.move_to_front t.order slot;
    Policy.Hit
  end
  else begin
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
  end

let access_fast t page = Policy.fast_of_outcome (access t page)

let remove t page =
  let slot = Slots.find_slot t.slots page in
  if slot >= 0 then begin
    Lru_list.remove t.order slot;
    ignore (Slots.release t.slots slot);
    true
  end
  else false

let resident t = Slots.resident t.slots
