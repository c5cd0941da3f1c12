open Atp_util

type translation =
  | Frame of int
  | Decode_fault
  | Not_covered

(* [values] holds the live ψ array for every huge page that needs one:
   those with at least one resident constituent, plus those currently
   in the TLB.  The TLB and the shadow table share the same mutable
   array, so a residency change updates a loaded TLB entry for free —
   which is exactly the model's free ψ update. *)

type t = {
  params : Params.t;
  alloc : Alloc.t;
  enc : Encoding.t;
  values : Encoding.value Int_table.Poly.t;
  counts : Int_table.t;  (* huge page -> resident constituents *)
  in_tlb : Int_table.t;  (* huge page -> 1 *)
}

let create ?seed params =
  let alloc = Alloc.create ?seed params in
  {
    params;
    alloc;
    enc = Encoding.create alloc;
    values = Int_table.Poly.create ~initial_capacity:4096 ();
    counts = Int_table.create ();
    in_tlb = Int_table.create ();
  }

let params t = t.params

let alloc t = t.alloc

let h_max t = Encoding.h_max t.enc

let[@inline] [@atplint.hot] huge_of t v = Encoding.huge_of t.enc v

(* A sentinel distinct (physically) from every stored psi, so the hot
   lookups below need no option. *)
let no_value : Encoding.value = Atp_util.Packed_array.create ~width:1 ~length:1

let value_for t u =
  let value = Int_table.Poly.find_or t.values u no_value in
  if value != no_value then value
  else begin
    let value = Encoding.empty_value t.enc in
    Int_table.Poly.set t.values u value;
    value
  end

let maybe_drop t u =
  let count = Int_table.find_or t.counts u 0 in
  if count = 0 && not (Int_table.mem t.in_tlb u) then
    ignore (Int_table.Poly.remove t.values u)

let[@atplint.hot] ram_insert t v =
  let code = Alloc.insert_code t.alloc v in
  let u = Encoding.huge_of t.enc v in
  ignore (Int_table.incr_by t.counts u 1 : int);
  Encoding.set_code t.enc (value_for t u) v code

let[@atplint.hot] ram_evict t v =
  Alloc.delete t.alloc v;
  let u = Encoding.huge_of t.enc v in
  let value = Int_table.Poly.find_or t.values u no_value in
  if value == no_value then assert false;
  Encoding.clear_page t.enc value v;
  let count = Int_table.incr_by t.counts u (-1) in
  if count = 0 then begin
    ignore (Int_table.remove t.counts u);
    maybe_drop t u
  end

let active t = Alloc.live t.alloc

let[@atplint.hot] tlb_add t u =
  if Int_table.add_if_absent t.in_tlb u 1 then ignore (value_for t u)

let[@atplint.hot] tlb_remove t u =
  if Int_table.remove t.in_tlb u then maybe_drop t u

let[@atplint.hot] tlb_mem t u = Int_table.mem t.in_tlb u

let tlb_size t = Int_table.length t.in_tlb

(* The allocation-free translate: [>= 0] is the frame,
   [fault_code] a decoding fault, [not_covered_code] a TLB miss. *)
let fault_code = -1

let not_covered_code = -2

(* The covered-case body, shared with {!translate_code}: callers that
   have just ensured coverage ([Simulation.access] adds u to the TLB on
   an X miss before translating) skip the membership probe. *)
let[@inline] [@atplint.hot] translate_covered_code t v u =
  let value = Int_table.Poly.find_or t.values u no_value in
  if value == no_value then fault_code
    (* covered but no constituent resident *)
  else begin
    let frame = Encoding.decode t.enc v value in
    if frame < 0 then fault_code else frame
  end

let[@atplint.hot] translate_code t v =
  let u = Encoding.huge_of t.enc v in
  if not (Int_table.mem t.in_tlb u) then not_covered_code
  else translate_covered_code t v u

let translate t v =
  let code = translate_code t v in
  if code >= 0 then Frame code
  else if code = fault_code then Decode_fault
  else Not_covered

let decoded_frame t v =
  let u = Encoding.huge_of t.enc v in
  match Int_table.Poly.find t.values u with
  | None -> None
  | Some value ->
    let frame = Encoding.decode t.enc v value in
    if frame < 0 then None else Some frame
