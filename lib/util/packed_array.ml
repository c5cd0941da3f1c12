type t = { data : Bytes.t; width : int; length : int }

let bytes_for ~width ~length = (width * length + 7) / 8

let create ~width ~length =
  if width < 1 || width > 48 then invalid_arg "Packed_array.create: width must be in 1..48";
  if length < 0 then invalid_arg "Packed_array.create: negative length";
  { data = Bytes.make (bytes_for ~width ~length) '\000'; width; length }

let max_value t = (1 lsl t.width) - 1

let total_bits t = t.width * t.length

let check t i =
  if i < 0 || i >= t.length then invalid_arg "Packed_array: index out of bounds"

(* Elements straddle byte boundaries; assemble/spread byte by byte. *)
let get t i =
  check t i;
  let bit = i * t.width in
  let first = bit lsr 3 in
  let offset = bit land 7 in
  let needed = t.width + offset in
  let nbytes = (needed + 7) lsr 3 in
  let acc = ref 0 in
  for j = nbytes - 1 downto 0 do
    acc := (!acc lsl 8) lor Char.code (Bytes.unsafe_get t.data (first + j))
  done;
  (!acc lsr offset) land ((1 lsl t.width) - 1)

let set t i v =
  check t i;
  if v < 0 || v > max_value t then invalid_arg "Packed_array.set: value out of range";
  let bit = i * t.width in
  let first = bit lsr 3 in
  let offset = bit land 7 in
  let needed = t.width + offset in
  let nbytes = (needed + 7) lsr 3 in
  let acc = ref 0 in
  for j = nbytes - 1 downto 0 do
    acc := (!acc lsl 8) lor Char.code (Bytes.unsafe_get t.data (first + j))
  done;
  let mask = ((1 lsl t.width) - 1) lsl offset in
  let acc = (!acc land lnot mask) lor (v lsl offset) in
  let acc = ref acc in
  for j = 0 to nbytes - 1 do
    Bytes.unsafe_set t.data (first + j) (Char.unsafe_chr (!acc land 0xFF));
    acc := !acc lsr 8
  done

let blit_to_bytes t = Bytes.copy t.data

let of_bytes ~width ~length data =
  if width < 1 || width > 48 then invalid_arg "Packed_array.of_bytes: bad width";
  if Bytes.length data <> bytes_for ~width ~length then
    invalid_arg "Packed_array.of_bytes: size mismatch";
  { data = Bytes.copy data; width; length }
