type scheme =
  | One_choice
  | Iceberg of { d : int }

type t = {
  scheme : scheme;
  p : int;
  w : int;
  bucket_size : int;
  buckets : int;
  k : int;
  tau : int;
  bits_per_page : int;
  h_max : int;
  delta : float;
}

let log2_ceil n =
  if n <= 1 then 0
  else begin
    let rec go bits v = if v <= 1 then bits else go (bits + 1) ((v + 1) / 2) in
    go 0 n
  end

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

(* All the asymptotic quantities, evaluated concretely.  Logs are base
   2 and clamped at 1 so the formulas behave at small P. *)
let derive ?(scheme = Iceberg { d = 2 }) ~p ~w () =
  if p < 2 then invalid_arg "Params.derive: p must be at least 2";
  if w < 2 then invalid_arg "Params.derive: w must be at least 2";
  let lp = Float.max 1.0 (Float.log2 (float_of_int p)) in
  let llp = Float.max 1.0 (Float.log2 lp) in
  let lllp = Float.max 1.0 (Float.log2 llp) in
  let k, tau, bucket_size, delta0 =
    match scheme with
    | One_choice ->
      (* λ = log P · log log P; B = λ / (1 - δ); δ = O(1/√(log log P)). *)
      let lambda = lp *. llp in
      let delta = clamp 0.05 0.5 (1.0 /. sqrt llp) in
      let b = int_of_float (ceil (lambda /. (1.0 -. delta))) in
      (1, b, b, delta)
    | Iceberg { d } ->
      if d < 1 then invalid_arg "Params.derive: Iceberg d must be at least 1";
      (* λ = log log P · log log log P; front cap τ = (1+o(1))λ; the
         back yard needs Θ(log log n) extra slots per bucket. *)
      let lambda = llp *. lllp in
      let delta = clamp 0.01 0.5 (1.0 /. llp) in
      let tau = max 1 (int_of_float (ceil (1.05 *. lambda))) in
      let approx_bins = Float.max 2.0 (float_of_int p /. lambda) in
      let backyard =
        int_of_float
          (ceil
             (Float.max 1.0 (Float.log2 (Float.max 2.0 (Float.log2 approx_bins)))))
        + 2
      in
      let b =
        max (int_of_float (ceil (lambda /. (1.0 -. delta)))) (tau + backyard)
      in
      (d + 1, tau, b, delta)
  in
  let buckets = p / bucket_size in
  if buckets < 1 then invalid_arg "Params.derive: p too small for one bucket";
  (* Per-page encoding: a choice index and a slot, plus one null code. *)
  let bits_per_page = max 1 (log2_ceil ((k * bucket_size) + 1)) in
  let h_max = w / bits_per_page in
  if h_max < 1 then
    invalid_arg "Params.derive: w too small to encode a single page pointer";
  (* Report the δ actually implied by the final geometry: the policy
     budget is (1 - δ0) of the slots that exist. *)
  let usable = int_of_float (float_of_int (buckets * bucket_size) *. (1.0 -. delta0)) in
  let delta = 1.0 -. (float_of_int usable /. float_of_int p) in
  { scheme; p; w; bucket_size; buckets; k; tau; bits_per_page; h_max; delta }

let usable_pages t =
  int_of_float (float_of_int t.p *. (1.0 -. t.delta))

let pp ppf t =
  let scheme_name =
    match t.scheme with
    | One_choice -> "one-choice"
    | Iceberg { d } -> Printf.sprintf "iceberg[%d]" d
  in
  Format.fprintf ppf
    "@[<v>scheme=%s P=%a w=%d@,B=%d buckets=%a k=%d tau=%d@,\
     bits/page=%d h_max=%d delta=%.3f usable=%a@]"
    scheme_name Atp_util.Stats.pp_count t.p t.w t.bucket_size
    Atp_util.Stats.pp_count t.buckets t.k t.tau t.bits_per_page t.h_max
    t.delta Atp_util.Stats.pp_count (usable_pages t)
