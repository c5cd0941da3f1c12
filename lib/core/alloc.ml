open Atp_util

type location =
  | Placed of { choice : int; slot : int; frame : int }
  | Fallback of { frame : int }

(* Per-page state is packed into one Int_table value: a placed page
   stores [choice * B + slot] (non-negative); a fallback page stores
   [-(frame) - 1]. *)

type t = {
  params : Params.t;
  fam : Hashing.family;
  front_load : int array;  (* per bucket: balls placed via choice 0 *)
  back_load : int array;   (* per bucket: balls placed via choices >= 1 *)
  occupancy : Bitvec.t array;
  free_in : int array;     (* per bucket free-slot count *)
  code_of : Int_table.t;   (* page -> packed location *)
  mutable total_free : int;
  mutable failures_total : int;
  mutable fallback_cursor : int;  (* rotating scan start for fallbacks *)
  b_div : Divider.t;  (* strength-reduced / and mod by bucket_size *)
}

let create ?(seed = 0xA7B) params =
  let { Params.buckets; bucket_size; k; _ } = params in
  let rng = Prng.create ~seed () in
  {
    params;
    fam = Hashing.family rng ~k ~range:buckets;
    front_load = Array.make buckets 0;
    back_load = Array.make buckets 0;
    occupancy = Array.init buckets (fun _ -> Bitvec.create bucket_size);
    free_in = Array.make buckets bucket_size;
    code_of = Int_table.create ();
    total_free = buckets * bucket_size;
    failures_total = 0;
    fallback_cursor = 0;
    b_div = Divider.make bucket_size;
  }

let params t = t.params

let frames t = t.params.Params.buckets * t.params.Params.bucket_size

let live t = Int_table.length t.code_of

let free t = t.total_free

let mem t page = Int_table.mem t.code_of page

let bin_of_choice t ~page ~choice = Hashing.apply t.fam choice page

let[@atplint.hot] take_slot t bin =
  let occ = t.occupancy.(bin) in
  let slot = Bitvec.first_clear_index occ in
  if slot < 0 then assert false;
  Bitvec.set occ slot;
  t.free_in.(bin) <- t.free_in.(bin) - 1;
  t.total_free <- t.total_free - 1;
  slot

let[@atplint.hot] release_slot t bin slot =
  Bitvec.clear t.occupancy.(bin) slot;
  t.free_in.(bin) <- t.free_in.(bin) + 1;
  t.total_free <- t.total_free + 1

(* Any free frame, found by a rotating scan; failures are rare by
   construction so the scan amortizes away. *)
let rec fallback_scan t ~buckets ~tried bin =
  if tried >= buckets then failwith "Alloc: RAM completely full"
  else if t.free_in.(bin) > 0 then bin
  else fallback_scan t ~buckets ~tried:(tried + 1) ((bin + 1) mod buckets)

let find_fallback t =
  let buckets = t.params.Params.buckets in
  let bin = fallback_scan t ~buckets ~tried:0 t.fallback_cursor in
  t.fallback_cursor <- (bin + 1) mod buckets;
  bin

let[@atplint.hot] place t page choice bin =
  let slot = take_slot t bin in
  if choice = 0 then t.front_load.(bin) <- t.front_load.(bin) + 1
  else t.back_load.(bin) <- t.back_load.(bin) + 1;
  let code = (choice * t.params.Params.bucket_size) + slot in
  Int_table.set t.code_of page code;
  code

(* The allocation-free primitive: places the page and returns its
   packed code ([choice * B + slot] when placed, [-frame - 1] on a
   paging failure) — the same packing [code_of] stores.  [insert] is
   its boxed view. *)
let[@atplint.hot] insert_code t page =
  if mem t page then invalid_arg "Alloc.insert: page already resident";
  if t.total_free = 0 then failwith "Alloc: RAM completely full";
  let { Params.bucket_size; k; tau; _ } = t.params in
  let front = Hashing.apply t.fam 0 page in
  if t.front_load.(front) < tau && t.free_in.(front) > 0 then
    place t page 0 front
  else begin
    (* Greedy[d] on back-yard loads over choices 1..k-1, skipping
       physically full buckets. *)
    let best = ref (-1) in
    let best_bin = ref (-1) in
    for choice = 1 to k - 1 do
      let bin = Hashing.apply t.fam choice page in
      if t.free_in.(bin) > 0
         && (!best = -1 || t.back_load.(bin) < t.back_load.(!best_bin))
      then begin
        best := choice;
        best_bin := bin
      end
    done;
    if !best >= 0 then place t page !best !best_bin
    else begin
      (* Paging failure: park the page anywhere; it has no encoding. *)
      let bin = find_fallback t in
      let slot = take_slot t bin in
      t.back_load.(bin) <- t.back_load.(bin) + 1;
      let frame = (bin * bucket_size) + slot in
      Int_table.set t.code_of page (-frame - 1);
      t.failures_total <- t.failures_total + 1;
      -frame - 1
    end
  end

let decode_code t page code =
  let bucket_size = t.params.Params.bucket_size in
  if code >= 0 then begin
    let choice = Divider.div t.b_div code in
    let slot = code - (choice * bucket_size) in
    let bin = bin_of_choice t ~page ~choice in
    Placed { choice; slot; frame = (bin * bucket_size) + slot }
  end
  else Fallback { frame = -code - 1 }

let insert t page = decode_code t page (insert_code t page)

let missing_code = min_int

let code_of t page = Int_table.find_or t.code_of page missing_code

let location_of t page =
  Option.map (decode_code t page) (Int_table.find t.code_of page)

let frame_of t page =
  match location_of t page with
  | Some (Placed { frame; _ }) | Some (Fallback { frame }) -> Some frame
  | None -> None

let[@atplint.hot] delete t page =
  let code = code_of t page in
  if code = missing_code then invalid_arg "Alloc.delete: page not resident";
  ignore (Int_table.remove t.code_of page);
  let bucket_size = t.params.Params.bucket_size in
  if code >= 0 then begin
    let choice = Divider.div t.b_div code in
    let slot = code - (choice * bucket_size) in
    let bin = Hashing.apply t.fam choice page in
    release_slot t bin slot;
    if choice = 0 then t.front_load.(bin) <- t.front_load.(bin) - 1
    else t.back_load.(bin) <- t.back_load.(bin) - 1
  end
  else begin
    let frame = -code - 1 in
    let bin = Divider.div t.b_div frame in
    let slot = frame - (bin * bucket_size) in
    release_slot t bin slot;
    t.back_load.(bin) <- t.back_load.(bin) - 1
  end

let failures_total t = t.failures_total

let max_bucket_load t =
  let best = ref 0 in
  for i = 0 to Array.length t.free_in - 1 do
    let load = t.params.Params.bucket_size - t.free_in.(i) in
    if load > !best then best := load
  done;
  !best
