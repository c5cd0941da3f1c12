type kind =
  | Zipf of { pages : int }
  | Bimodal of { pages : int; hot : int; hot_fraction : float }
  | Walk of { pages : int; out_degree : int; alpha : float }

let pp_kind ppf = function
  | Zipf { pages } -> Format.fprintf ppf "zipf(s=1) over %d pages" pages
  | Bimodal { pages; hot; hot_fraction } ->
    Format.fprintf ppf "bimodal %g%% in %d of %d pages"
      (100. *. hot_fraction) hot pages
  | Walk { pages; out_degree; alpha } ->
    Format.fprintf ppf "pareto(alpha=%g) walk, out-degree %d, over %d pages"
      alpha out_degree pages

(* SplitMix64 (Steele, Lea and Flood, 2014). *)
type rng = { mutable state : int64 }

let xor_shift z k = Int64.logxor z (Int64.shift_right_logical z k)

let mix64 z =
  let z = Int64.mul (xor_shift z 30) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (xor_shift z 27) 0x94D049BB133111EBL in
  xor_shift z 31

let next64 r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  mix64 r.state

let unit_float z =
  Int64.to_float (Int64.shift_right_logical z 11) *. 0x1.0p-53

let float r = unit_float (next64 r)

(* Uniform on [0, n) up to a modulo bias below 2^-32 for the sizes used
   here. *)
let below r n =
  let z = Int64.shift_right_logical (next64 r) 1 in
  Int64.to_int (Int64.rem z (Int64.of_int n))

(* Rejection-inversion for s = 1: H(x) = ln x is the integral of the
   hat function h(x) = 1/x, and H^-1 = exp. *)
let zipf ~pages r =
  let nf = float_of_int pages in
  let h_x1 = log 1.5 -. 1.0 and h_n = log (nf +. 0.5) in
  let s = 2.0 -. exp (log 2.5 -. 0.5) in
  let rec draw () =
    let u = h_n +. (float r *. (h_x1 -. h_n)) in
    let x = exp u in
    let k = Float.min nf (Float.max 1.0 (Float.round x)) in
    if k -. x <= s || u >= log (k +. 0.5) -. (1.0 /. k) then
      int_of_float k - 1
    else draw ()
  in
  draw

let bimodal ~pages ~hot ~hot_fraction r =
  let base = below r (pages / hot) * hot in
  fun () ->
    if float r < hot_fraction then base + below r hot else below r pages

let walk ~pages ~out_degree ~alpha r =
  let edge_seed = next64 r in
  let ratio = (1.0 /. float_of_int pages) ** alpha in
  (* Each (node, edge) hashes to a fixed target, so revisits follow the
     same graph. *)
  let target node edge =
    let key = Int64.of_int ((node * out_degree) + edge) in
    let u = unit_float (mix64 (Int64.logxor edge_seed key)) in
    let x = 1.0 /. ((1.0 -. (u *. (1.0 -. ratio))) ** (1.0 /. alpha)) in
    max 0 (min (pages - 1) (int_of_float x - 1))
  in
  let here = ref (below r pages) in
  fun () ->
    here := target !here (below r out_degree);
    !here

let fnv_prime = 0x100000001b3L

let generate kind ~seed ~n emit =
  let r = { state = Int64.of_int seed } in
  let next =
    match kind with
    | Zipf { pages } -> zipf ~pages r
    | Bimodal { pages; hot; hot_fraction } ->
      bimodal ~pages ~hot ~hot_fraction r
    | Walk { pages; out_degree; alpha } -> walk ~pages ~out_degree ~alpha r
  in
  let h = ref 0xcbf29ce484222325L in
  for _ = 1 to n do
    let page = next () in
    for byte = 0 to 7 do
      let b = Int64.of_int ((page lsr (8 * byte)) land 0xff) in
      h := Int64.mul (Int64.logxor !h b) fnv_prime
    done;
    emit page
  done;
  Printf.sprintf "%016Lx" !h

let write kind ~seed ~n path =
  Atp_workloads.Trace.Stream.with_writer ~chunk_size:65536 path (fun w ->
      generate kind ~seed ~n (Atp_workloads.Trace.Stream.push w))
