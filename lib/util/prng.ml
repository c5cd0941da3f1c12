type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
}

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: the standard 64-bit avalanche mixer. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let splitmix_next state =
  state := Int64.add !state golden_gamma;
  mix64 !state

let default_seed = 0x5DEECE66D

let create ?(seed = default_seed) () =
  let sm = ref (Int64.of_int seed) in
  let s0 = splitmix_next sm in
  let s1 = splitmix_next sm in
  let s2 = splitmix_next sm in
  let s3 = splitmix_next sm in
  (* xoshiro256** requires a nonzero state; SplitMix64 outputs are zero
     for at most one step, so forcing one lane nonzero is enough. *)
  let s0 = if Int64.equal s0 0L && Int64.equal s1 0L
              && Int64.equal s2 0L && Int64.equal s3 0L
           then 1L else s0 in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (next_int64 t) in
  create ~seed ()

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  if n land (n - 1) = 0 then bits t land (n - 1)
  else begin
    (* Rejection sampling on the top of the 62-bit range to kill
       modulo bias. *)
    let limit = 0x3FFF_FFFF_FFFF_FFFF / n * n in
    let rec draw () =
      let v = bits t in
      if v < limit then v mod n else draw ()
    in
    draw ()
  end

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Prng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 high bits, scaled to [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int v *. 0x1.0p-53

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
