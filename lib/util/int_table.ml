type t = {
  mutable keys : int array;    (* empty = -1 *)
  mutable values : int array;
  mutable size : int;
  mutable mask : int;          (* capacity - 1; capacity is a power of two *)
  mutable shift : int;         (* 62 - log2 capacity *)
}

let empty_key = -1

let round_up_pow2 n =
  let rec go acc = if acc >= n then acc else go (acc * 2) in
  go 8

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(initial_capacity = 16) () =
  let cap = round_up_pow2 initial_capacity in
  { keys = Array.make cap empty_key;
    values = Array.make cap 0;
    size = 0;
    mask = cap - 1;
    shift = 62 - log2 cap }

let length t = t.size

(* Multiplicative hashing: the home slot is the top log2(capacity) bits
   of the 62-bit product.  The product's low bits depend only on the
   key's low bits, so keys that agree modulo the capacity (block bases,
   strided pages) would share one home slot there and turn linear
   probing O(n).  The multiplier is not 2^62/φ on purpose: that spreads
   a block of consecutive pages one key per cache line, and this one
   packs a hot block into fewer lines (EXPERIMENTS.md, Figure 1's
   simulator). *)
let[@inline] hash_slot shift key =
  ((key * 0x2545F4914F6CDD1D) land max_int) lsr shift

let slot_of t key = hash_slot t.shift key

let check_key key =
  if key < 0 then invalid_arg "Int_table: keys must be non-negative"

(* The probe result is one untagged int — the key's slot when found,
   [lnot slot] of the first empty slot when absent (always negative) —
   because a [(slot, found)] tuple would heap-allocate on every table
   operation without flambda, and these tables back every hot
   structure in the simulator.  Indices are pre-masked, so the unsafe
   array accesses cannot go out of bounds. *)
let[@atplint.hot] rec probe t key i =
  let k = Array.unsafe_get t.keys i in
  if k = key then i
  else if k = empty_key then lnot i
  else probe t key ((i + 1) land t.mask)

let grow t =
  let old_keys = t.keys and old_values = t.values in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap empty_key;
  t.values <- Array.make cap 0;
  t.mask <- cap - 1;
  t.shift <- t.shift - 1;
  t.size <- 0;
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k <> empty_key then begin
      let j = lnot (probe t k (slot_of t k)) in
      t.keys.(j) <- k;
      t.values.(j) <- Array.unsafe_get old_values i;
      t.size <- t.size + 1
    end
  done

let maybe_grow t =
  (* Keep load below 0.75. *)
  if 4 * (t.size + 1) > 3 * (t.mask + 1) then grow t

let[@atplint.hot] mem t key =
  check_key key;
  probe t key (slot_of t key) >= 0

let find t key =
  check_key key;
  let i = probe t key (slot_of t key) in
  if i >= 0 then Some (Array.unsafe_get t.values i) else None

let find_exn t key =
  check_key key;
  let i = probe t key (slot_of t key) in
  if i >= 0 then Array.unsafe_get t.values i else raise Not_found

let[@inline] [@atplint.hot] find_or t key default =
  check_key key;
  let i = probe t key (slot_of t key) in
  if i >= 0 then Array.unsafe_get t.values i else default

let[@atplint.hot] set t key value =
  check_key key;
  maybe_grow t;
  let i = probe t key (slot_of t key) in
  if i >= 0 then Array.unsafe_set t.values i value
  else begin
    let j = lnot i in
    Array.unsafe_set t.keys j key;
    Array.unsafe_set t.values j value;
    t.size <- t.size + 1
  end

(* One probe for a read-modify-write of a counter cell: add [delta]
   to the stored value (inserting [delta] if absent) and return the
   new value. *)
let[@atplint.hot] incr_by t key delta =
  check_key key;
  maybe_grow t;
  let i = probe t key (slot_of t key) in
  if i >= 0 then begin
    let v = Array.unsafe_get t.values i + delta in
    Array.unsafe_set t.values i v;
    v
  end
  else begin
    let j = lnot i in
    Array.unsafe_set t.keys j key;
    Array.unsafe_set t.values j delta;
    t.size <- t.size + 1;
    delta
  end

let add_if_absent t key value =
  check_key key;
  maybe_grow t;
  let i = probe t key (slot_of t key) in
  if i >= 0 then false
  else begin
    let j = lnot i in
    Array.unsafe_set t.keys j key;
    Array.unsafe_set t.values j value;
    t.size <- t.size + 1;
    true
  end

(* Can a key homed at [home] legally live at [lo]?  Yes iff home is
   cyclically outside (lo, hi]. *)
let[@inline] cyclically_between lo x hi =
  if lo <= hi then lo < x && x <= hi else lo < x || x <= hi

let[@atplint.hot] rec shift_back t gap j =
  let k = t.keys.(j) in
  if k = empty_key then ()
  else begin
    let home = slot_of t k in
    if cyclically_between gap home j then shift_back t gap ((j + 1) land t.mask)
    else begin
      t.keys.(gap) <- k;
      t.values.(gap) <- t.values.(j);
      t.keys.(j) <- empty_key;
      shift_back t j ((j + 1) land t.mask)
    end
  end

(* Backward-shift deletion: re-home the cluster that follows the freed
   slot so probe chains never break. *)
let[@atplint.hot] remove t key =
  check_key key;
  let i = probe t key (slot_of t key) in
  if i < 0 then false
  else begin
    t.keys.(i) <- empty_key;
    t.size <- t.size - 1;
    shift_back t i ((i + 1) land t.mask);
    true
  end

let iter f t =
  Array.iteri (fun i k -> if k <> empty_key then f k t.values.(i)) t.keys

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  t.size <- 0

let keys t = fold (fun k _ acc -> k :: acc) t []

(* Same table, boxed values.  The values array stays empty until the
   first insert provides a fill element, so no dummy value (and no
   [Obj] trickery) is ever needed. *)
module Poly = struct
  type 'a t = {
    mutable keys : int array;    (* empty = -1 *)
    mutable values : 'a array;   (* length 0 until the first insert *)
    mutable size : int;
    mutable mask : int;
    mutable shift : int;
  }

  let create ?(initial_capacity = 16) () =
    let cap = round_up_pow2 initial_capacity in
    { keys = Array.make cap empty_key; values = [||]; size = 0; mask = cap - 1;
      shift = 62 - log2 cap }

  let length t = t.size

  let slot_of t key = hash_slot t.shift key

  let check_key key =
    if key < 0 then invalid_arg "Int_table.Poly: keys must be non-negative"

  (* Same single-int probe convention as the flat table: slot when
     found, [lnot slot] of the first empty slot when absent. *)
  let[@atplint.hot] rec probe t key i =
    let k = Array.unsafe_get t.keys i in
    if k = key then i
    else if k = empty_key then lnot i
    else probe t key ((i + 1) land t.mask)

  let grow t =
    let old_keys = t.keys and old_values = t.values in
    let cap = (t.mask + 1) * 2 in
    t.keys <- Array.make cap empty_key;
    (* [grow] only runs when the table is nearly full, so a fill
       element exists. *)
    t.values <- Array.make cap old_values.(0);
    t.mask <- cap - 1;
    t.shift <- t.shift - 1;
    t.size <- 0;
    for i = 0 to Array.length old_keys - 1 do
      let k = Array.unsafe_get old_keys i in
      if k <> empty_key then begin
        let j = lnot (probe t k (slot_of t k)) in
        t.keys.(j) <- k;
        t.values.(j) <- Array.unsafe_get old_values i;
        t.size <- t.size + 1
      end
    done

  let maybe_grow t = if 4 * (t.size + 1) > 3 * (t.mask + 1) then grow t

  let[@atplint.hot] mem t key =
    check_key key;
    probe t key (slot_of t key) >= 0

  let find t key =
    check_key key;
    let i = probe t key (slot_of t key) in
    if i >= 0 then Some (Array.unsafe_get t.values i) else None

  let find_exn t key =
    check_key key;
    let i = probe t key (slot_of t key) in
    if i >= 0 then Array.unsafe_get t.values i else raise Not_found

  let[@inline] [@atplint.hot] find_or t key default =
    check_key key;
    let i = probe t key (slot_of t key) in
    if i >= 0 then Array.unsafe_get t.values i else default

  let[@atplint.hot] set t key value =
    check_key key;
    maybe_grow t;
    if Array.length t.values = 0 then
      t.values <- Array.make (t.mask + 1) value;
    let i = probe t key (slot_of t key) in
    if i >= 0 then Array.unsafe_set t.values i value
    else begin
      let j = lnot i in
      Array.unsafe_set t.keys j key;
      Array.unsafe_set t.values j value;
      t.size <- t.size + 1
    end

  let[@atplint.hot] rec shift_back t gap j =
    let k = t.keys.(j) in
    if k = empty_key then ()
    else begin
      let home = slot_of t k in
      if cyclically_between gap home j then
        shift_back t gap ((j + 1) land t.mask)
      else begin
        t.keys.(gap) <- k;
        t.values.(gap) <- t.values.(j);
        t.keys.(j) <- empty_key;
        shift_back t j ((j + 1) land t.mask)
      end
    end

  let[@atplint.hot] remove t key =
    check_key key;
    let i = probe t key (slot_of t key) in
    if i < 0 then false
    else begin
      t.keys.(i) <- empty_key;
      t.size <- t.size - 1;
      shift_back t i ((i + 1) land t.mask);
      true
    end

  let iter f t =
    Array.iteri (fun i k -> if k <> empty_key then f k t.values.(i)) t.keys

  let fold f t init =
    let acc = ref init in
    iter (fun k v -> acc := f k v !acc) t;
    !acc

  let clear t =
    Array.fill t.keys 0 (Array.length t.keys) empty_key;
    (* Drop the values array so cleared payloads can be collected. *)
    t.values <- [||];
    t.size <- 0
end
