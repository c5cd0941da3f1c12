open Atp_util

type value = Packed_array.t

type t = {
  alloc : Alloc.t;
  h_max : int;
  bits_per_page : int;
  bucket_size : int;
  null : int;
  h_div : Divider.t;  (* strength-reduced / and mod by h_max *)
  b_div : Divider.t;  (* … and by bucket_size *)
}

let create alloc =
  let params = Alloc.params alloc in
  let { Params.h_max; bits_per_page; bucket_size; k; _ } = params in
  {
    alloc;
    h_max;
    bits_per_page;
    bucket_size;
    null = k * bucket_size;
    h_div = Divider.make h_max;
    b_div = Divider.make bucket_size;
  }

let h_max t = t.h_max

let bits_used t = t.h_max * t.bits_per_page

let[@inline] [@atplint.hot] huge_of t v = Divider.div t.h_div v

let[@inline] [@atplint.hot] index_of t v = Divider.rem t.h_div v

let empty_value t =
  let value = Packed_array.create ~width:t.bits_per_page ~length:t.h_max in
  for i = 0 to t.h_max - 1 do
    Packed_array.set value i t.null
  done;
  value

(* A placed page's packed Alloc code is exactly the field encoding
   ([choice * B + slot < k * B = null]); fallback or absent is null. *)
let[@atplint.hot] set_code t value v code =
  Packed_array.set value (index_of t v) (if code >= 0 then code else t.null)

let refresh_page t value v = set_code t value v (Alloc.code_of t.alloc v)

let[@atplint.hot] clear_page t value v = Packed_array.set value (index_of t v) t.null

let is_empty t value =
  let rec go i =
    i >= t.h_max || (Packed_array.get value i = t.null && go (i + 1))
  in
  go 0

let[@atplint.hot] decode t v value =
  let code = Packed_array.get value (index_of t v) in
  if code = t.null then -1
  else begin
    let choice = Divider.div t.b_div code in
    let slot = code - (choice * t.bucket_size) in
    let bin = Alloc.bin_of_choice t.alloc ~page:v ~choice in
    (bin * t.bucket_size) + slot
  end
