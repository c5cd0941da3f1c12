type t = { words : Bytes.t; length : int }

let bits_per_word = 8

let words_for n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitvec.create: negative length";
  { words = Bytes.make (words_for n) '\000'; length = n }

let length t = t.length

let check t i =
  if i < 0 || i >= t.length then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check t i;
  Char.code (Bytes.unsafe_get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let w = i lsr 3 in
  let b = Char.code (Bytes.unsafe_get t.words w) in
  Bytes.unsafe_set t.words w (Char.unsafe_chr (b lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let w = i lsr 3 in
  let b = Char.code (Bytes.unsafe_get t.words w) in
  Bytes.unsafe_set t.words w (Char.unsafe_chr (b land lnot (1 lsl (i land 7)) land 0xFF))

let assign t i v = if v then set t i else clear t i

let pop_count t =
  let count = ref 0 in
  for w = 0 to Bytes.length t.words - 1 do
    let b = ref (Char.code (Bytes.unsafe_get t.words w)) in
    while !b <> 0 do
      b := !b land (!b - 1);
      incr count
    done
  done;
  !count

let iter_set f t =
  for i = 0 to t.length - 1 do
    if get t i then f i
  done

(* Allocation-free scan: whole 0xFF bytes are skipped, and the result
   is an index (-1 when full) rather than an option — this runs on
   every frame allocation.  The scan loops live at the top level so no
   closure is built per call. *)
let[@atplint.hot] rec fc_bit w b i =
  if b land (1 lsl i) = 0 then (w lsl 3) + i else fc_bit w b (i + 1)

let[@atplint.hot] rec fc_word words nwords w =
  if w >= nwords then -1
  else begin
    let b = Char.code (Bytes.unsafe_get words w) in
    if b = 0xFF then fc_word words nwords (w + 1) else fc_bit w b 0
  end

let[@atplint.hot] first_clear_index t =
  let i = fc_word t.words (Bytes.length t.words) 0 in
  if i < t.length then i else -1

let first_clear t =
  let i = first_clear_index t in
  if i < 0 then None else Some i

let fill t v =
  let byte = if v then '\255' else '\000' in
  Bytes.fill t.words 0 (Bytes.length t.words) byte;
  (* Keep the spare bits of the last word clear so pop_count stays
     honest. *)
  if v && t.length land 7 <> 0 then begin
    let last = Bytes.length t.words - 1 in
    let keep = (1 lsl (t.length land 7)) - 1 in
    Bytes.set t.words last (Char.chr (Char.code (Bytes.get t.words last) land keep))
  end
