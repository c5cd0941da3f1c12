(* Strength-reduced division by a fixed positive divisor d, for hot
   loops where d is a runtime constant (h_max, bucket size).  The
   round-up reciprocal m = floor(2^F/d) + 1 gives

     floor(v * m / 2^F) = floor(v / d)

   for all 0 <= v <= limit (see [make] for the bound), turning a
   ~25-cycle hardware divide into a multiply and a shift.  Values
   beyond [limit] — or negative — fall back to the hardware divide, so
   the result is exact for every int. *)

type t = { d : int; m : int; shift : int; limit : int }

let log2_floor n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let make d =
  if d < 1 then invalid_arg "Divider.make: divisor must be positive";
  (* F = 31 + floor(log2 d) keeps v * m below 2^62 for v <= limit and
     makes the error term q * (m*d - 2^F) + (d-1) * m stay under 2^F
     whenever q <= 2^F/d^2 - 1; limit = d * (2^F/d^2 - 1) ~ 2^31
     under-approximates that bound conservatively. *)
  let shift = 31 + log2_floor d in
  let pow = 1 lsl shift in
  let m = (pow / d) + 1 in
  let q_max = (pow / d / d) - 1 in
  let limit = if q_max < 0 then 0 else q_max * d in
  { d; m; shift; limit }

let[@inline] [@atplint.hot] div t v =
  if v >= 0 && v <= t.limit then (v * t.m) lsr t.shift else v / t.d

let[@inline] [@atplint.hot] rem t v = v - (div t v * t.d)
