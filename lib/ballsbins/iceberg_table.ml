open Atp_util

(* Geometry: front bins of width 8 sized for the full capacity at
   average load ~6 (75%), back bins of width 4 with two choices.  The
   spill area handles the 1/poly tail. *)

let front_width = 8

let back_width = 4

type stats = {
  inserts : int;
  lookups : int;
  front_hits : int;
  back_hits : int;
  overflow_hits : int;
  slots_probed : int;
}

let zero_stats =
  {
    inserts = 0;
    lookups = 0;
    front_hits = 0;
    back_hits = 0;
    overflow_hits = 0;
    slots_probed = 0;
  }

type 'v t = {
  front_fam : Hashing.family;  (* 1 hash onto front bins *)
  back_fam : Hashing.family;  (* 2 hashes onto back bins *)
  front_keys : int array;  (* bins * front_width; -1 = empty *)
  front_vals : 'v option array;
  back_keys : int array;  (* bins * back_width; -1 = empty *)
  back_vals : 'v option array;
  back_load : int array;  (* per back bin, for Greedy[2] *)
  overflow : (int, 'v) Hashtbl.t;
  mutable length : int;
  mutable front_count : int;
  mutable stats : stats;
}

let create ?(seed = 0x1CE) ~capacity () =
  if capacity < 1 then invalid_arg "Iceberg_table.create: bad capacity";
  (* Front yard sized at ~75% average occupancy of width-8 bins. *)
  let bins = max 1 ((capacity + (6 - 1)) / 6) in
  let rng = Prng.create ~seed () in
  {
    front_fam = Hashing.family rng ~k:1 ~range:bins;
    back_fam = Hashing.family rng ~k:2 ~range:bins;
    front_keys = Array.make (bins * front_width) (-1);
    front_vals = Array.make (bins * front_width) None;
    back_keys = Array.make (bins * back_width) (-1);
    back_vals = Array.make (bins * back_width) None;
    back_load = Array.make bins 0;
    overflow = Hashtbl.create 16;
    length = 0;
    front_count = 0;
    stats = zero_stats;
  }

let length t = t.length

let overflow_count t = Hashtbl.length t.overflow

let front_yard_fraction t =
  if t.length = 0 then 1.0
  else float_of_int t.front_count /. float_of_int t.length

let stats t = t.stats

let reset_stats t = t.stats <- zero_stats

let check_key key =
  if key < 0 then invalid_arg "Iceberg_table: keys must be non-negative"

(* Scan a bin region for a key; returns the slot index and probes
   made. *)
let scan keys base width key =
  let rec go i probes =
    if i = width then (-1, probes)
    else if keys.(base + i) = key then (base + i, probes + 1)
    else go (i + 1) (probes + 1)
  in
  go 0 0

let find_slot t key =
  (* Returns (where, slot, probes): where = `Front | `Back | `Spill |
     `Absent. *)
  let fb = Hashing.apply t.front_fam 0 key in
  let slot, p1 = scan t.front_keys (fb * front_width) front_width key in
  if slot >= 0 then (`Front, slot, p1)
  else begin
    let b1 = Hashing.apply t.back_fam 0 key in
    let slot, p2 = scan t.back_keys (b1 * back_width) back_width key in
    if slot >= 0 then (`Back, slot, p1 + p2)
    else begin
      let b2 = Hashing.apply t.back_fam 1 key in
      let slot, p3 = scan t.back_keys (b2 * back_width) back_width key in
      if slot >= 0 then (`Back, slot, p1 + p2 + p3)
      else if Hashtbl.mem t.overflow key then (`Spill, -1, p1 + p2 + p3)
      else (`Absent, -1, p1 + p2 + p3)
    end
  end

let bump_lookup t where probes =
  let s = t.stats in
  t.stats <-
    {
      s with
      lookups = s.lookups + 1;
      slots_probed = s.slots_probed + probes;
      front_hits = (s.front_hits + match where with `Front -> 1 | _ -> 0);
      back_hits = (s.back_hits + match where with `Back -> 1 | _ -> 0);
      overflow_hits = (s.overflow_hits + match where with `Spill -> 1 | _ -> 0);
    }

let find t key =
  check_key key;
  let where, slot, probes = find_slot t key in
  bump_lookup t where probes;
  match where with
  | `Front -> t.front_vals.(slot)
  | `Back -> t.back_vals.(slot)
  | `Spill -> Hashtbl.find_opt t.overflow key
  | `Absent -> None

let mem t key =
  check_key key;
  let where, _, probes = find_slot t key in
  bump_lookup t where probes;
  where <> `Absent

let free_slot keys base width =
  let rec go i =
    if i = width then -1 else if keys.(base + i) = -1 then base + i else go (i + 1)
  in
  go 0

let insert t key value =
  check_key key;
  t.stats <- { t.stats with inserts = t.stats.inserts + 1 };
  let where, slot, _ = find_slot t key in
  match where with
  | `Front ->
    t.front_vals.(slot) <- Some value
  | `Back ->
    t.back_vals.(slot) <- Some value
  | `Spill ->
    Hashtbl.replace t.overflow key value
  | `Absent ->
    let fb = Hashing.apply t.front_fam 0 key in
    let fslot = free_slot t.front_keys (fb * front_width) front_width in
    if fslot >= 0 then begin
      t.front_keys.(fslot) <- key;
      t.front_vals.(fslot) <- Some value;
      t.front_count <- t.front_count + 1;
      t.length <- t.length + 1
    end
    else begin
      (* Greedy[2] on back-bin loads, skipping full bins. *)
      let b1 = Hashing.apply t.back_fam 0 key in
      let b2 = Hashing.apply t.back_fam 1 key in
      let pick =
        if t.back_load.(b1) <= t.back_load.(b2) then
          if t.back_load.(b1) < back_width then Some b1
          else if t.back_load.(b2) < back_width then Some b2
          else None
        else if t.back_load.(b2) < back_width then Some b2
        else if t.back_load.(b1) < back_width then Some b1
        else None
      in
      match pick with
      | Some bin ->
        let bslot = free_slot t.back_keys (bin * back_width) back_width in
        t.back_keys.(bslot) <- key;
        t.back_vals.(bslot) <- Some value;
        t.back_load.(bin) <- t.back_load.(bin) + 1;
        t.length <- t.length + 1
      | None ->
        Hashtbl.replace t.overflow key value;
        t.length <- t.length + 1
    end

let remove t key =
  check_key key;
  let where, slot, _ = find_slot t key in
  match where with
  | `Absent -> false
  | `Front ->
    t.front_keys.(slot) <- -1;
    t.front_vals.(slot) <- None;
    t.front_count <- t.front_count - 1;
    t.length <- t.length - 1;
    true
  | `Back ->
    let bin = slot / back_width in
    t.back_keys.(slot) <- -1;
    t.back_vals.(slot) <- None;
    t.back_load.(bin) <- t.back_load.(bin) - 1;
    t.length <- t.length - 1;
    true
  | `Spill ->
    Hashtbl.remove t.overflow key;
    t.length <- t.length - 1;
    true
