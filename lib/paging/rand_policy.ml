open Atp_util

type t = { slots : Slots.t; rng : Prng.t }

let name = "random"

let create ?rng ~capacity () =
  let rng = match rng with Some r -> r | None -> Prng.create () in
  { slots = Slots.create capacity; rng }

let capacity t = Slots.capacity t.slots

let size t = Slots.size t.slots

let mem t page = Slots.find_slot t.slots page >= 0

let access t page =
  if mem t page then Policy.Hit
  else begin
    let evicted =
      if Slots.is_full t.slots then begin
        (* When full every slot is occupied, so a uniform slot is a
           uniform resident page. *)
        let victim_slot = Prng.int t.rng (Slots.capacity t.slots) in
        Some (Slots.release t.slots victim_slot)
      end
      else None
    in
    ignore (Slots.alloc t.slots page);
    Policy.Miss { evicted }
  end

let access_fast t page = Policy.fast_of_outcome (access t page)

let remove t page =
  let slot = Slots.find_slot t.slots page in
  if slot >= 0 then begin
    ignore (Slots.release t.slots slot);
    true
  end
  else false

let resident t = Slots.resident t.slots
