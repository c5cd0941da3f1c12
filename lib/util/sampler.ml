type t = Prng.t -> int

let uniform ~n =
  if n <= 0 then invalid_arg "Sampler.uniform: empty support";
  fun rng -> Prng.int rng n

let bounded_pareto ~alpha ~n =
  if alpha <= 0.0 then invalid_arg "Sampler.bounded_pareto: alpha must be positive";
  if n <= 0 then invalid_arg "Sampler.bounded_pareto: empty support";
  let l = 1.0 and h = float_of_int n in
  let ratio = (l /. h) ** alpha in
  fun rng ->
    let u = Prng.float rng in
    (* Inverse CDF of the bounded Pareto(l, h, alpha). *)
    let x = l /. ((1.0 -. u *. (1.0 -. ratio)) ** (1.0 /. alpha)) in
    let i = int_of_float x - 1 in
    if i < 0 then 0 else if i >= n then n - 1 else i

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

type discrete = {
  prob : float array;   (* acceptance probability per column *)
  alias : int array;    (* fallback index per column *)
}

let discrete weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sampler.discrete: empty weights";
  let total = Array.fold_left (fun acc w ->
    if w < 0.0 then invalid_arg "Sampler.discrete: negative weight";
    acc +. w) 0.0 weights
  in
  if total <= 0.0 then invalid_arg "Sampler.discrete: all weights zero";
  let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
  let prob = Array.make n 1.0 in
  let alias = Array.init n (fun i -> i) in
  let small = Stack.create () and large = Stack.create () in
  Array.iteri (fun i p -> Stack.push i (if p < 1.0 then small else large)) scaled;
  while not (Stack.is_empty small) && not (Stack.is_empty large) do
    let s = Stack.pop small and l = Stack.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
    Stack.push l (if scaled.(l) < 1.0 then small else large)
  done;
  (* Leftovers are numerically 1.0. *)
  Stack.iter (fun i -> prob.(i) <- 1.0) small;
  Stack.iter (fun i -> prob.(i) <- 1.0) large;
  { prob; alias }

let sample_discrete d rng =
  let n = Array.length d.prob in
  let col = Prng.int rng n in
  if Prng.float rng < d.prob.(col) then col else d.alias.(col)
