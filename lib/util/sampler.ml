type t = Prng.t -> int

(* Rejection-inversion sampling for the Zipf distribution, after
   Hörmann & Derflinger (1996).  Exact for any support size without
   precomputing the harmonic normalizer. *)
let zipf ~s ~n =
  if n <= 0 then invalid_arg "Sampler.zipf: empty support";
  if s <= 0.0 then invalid_arg "Sampler.zipf: exponent must be positive";
  if n = 1 then fun _ -> 0
  else begin
    let nf = float_of_int n in
    let h x = if abs_float (s -. 1.0) < 1e-12 then log x
              else (x ** (1.0 -. s) -. 1.0) /. (1.0 -. s) in
    let h_inv y = if abs_float (s -. 1.0) < 1e-12 then exp y
                  else (1.0 +. y *. (1.0 -. s)) ** (1.0 /. (1.0 -. s)) in
    let h_x1 = h 1.5 -. 1.0 in
    let h_n = h (nf +. 0.5) in
    (* Quick-accept threshold from the Apache Commons implementation of
       the same algorithm. *)
    let s_const = 2.0 -. h_inv (h 2.5 -. (2.0 ** (-. s))) in
    fun rng ->
      let rec draw () =
        let u = h_n +. Prng.float rng *. (h_x1 -. h_n) in
        let x = h_inv u in
        let k = floor (x +. 0.5) in
        let k = if k < 1.0 then 1.0 else if k > nf then nf else k in
        if k -. x <= s_const || u >= h (k +. 0.5) -. (k ** (-. s))
        then int_of_float k - 1
        else draw ()
      in
      draw ()
  end
