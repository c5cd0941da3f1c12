open Atp_util

(* Heap entries are (frequency, tick, page); an entry is stale unless
   the page is resident with exactly that frequency.  Each hit pushes a
   fresh entry, so the heap holds O(hits) entries between evictions;
   stale ones are discarded as they surface. *)

type t = {
  capacity : int;
  freq : Int_table.t;             (* page -> current frequency *)
  heap : (int * int * int) Heap.t;
  mutable tick : int;
}

let name = "lfu"

let cmp (f1, t1, _) (f2, t2, _) =
  if f1 <> f2 then compare f1 f2 else compare t1 t2

let create ?rng ~capacity () =
  ignore rng;
  if capacity < 1 then invalid_arg "Lfu.create: capacity must be at least 1";
  { capacity; freq = Int_table.create (); heap = Heap.create ~cmp (); tick = 0 }

let capacity t = t.capacity

let size t = Int_table.length t.freq

let mem t page = Int_table.mem t.freq page

let push t page freq =
  t.tick <- t.tick + 1;
  Heap.push t.heap (freq, t.tick, page)

let rec pop_victim t =
  match Heap.pop t.heap with
  | None -> assert false
  | Some (freq, _, page) ->
    (match Int_table.find t.freq page with
     | Some current when current = freq -> page
     | _ -> pop_victim t)

let access t page =
  match Int_table.find t.freq page with
  | Some f ->
    Int_table.set t.freq page (f + 1);
    push t page (f + 1);
    Policy.Hit
  | None ->
    let evicted =
      if size t = t.capacity then begin
        let victim = pop_victim t in
        ignore (Int_table.remove t.freq victim);
        Some victim
      end
      else None
    in
    Int_table.set t.freq page 1;
    push t page 1;
    Policy.Miss { evicted }

let access_fast t page = Policy.fast_of_outcome (access t page)

let remove t page = Int_table.remove t.freq page

let resident t = Int_table.keys t.freq
