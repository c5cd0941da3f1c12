(* The SplitMix64 finalizer's avalanche structure on native ints, with
   the multiplicative constants truncated to fit the 63-bit int.  Boxed
   Int64 arithmetic heap-allocates every intermediate without flambda,
   and [hash] sits on the replay hot path (one decode per access, k
   placement probes per miss), so the mixer must stay in registers. *)
let[@inline] mix x =
  let x = (x lxor (x lsr 30)) * 0x3F58476D1CE4E5B9 in
  let x = (x lxor (x lsr 27)) * 0x14D049BB133111EB in
  x lxor (x lsr 31)

let[@inline] hash ~seed x = mix (x + (seed * 0x1E3779B97F4A7C15)) land max_int

let hash_in ~seed n x =
  if n <= 0 then invalid_arg "Hashing.hash_in: empty range";
  if n >= 1 lsl 30 then invalid_arg "Hashing.hash_in: range too large";
  (* Lemire's multiply-shift range reduction, on the top 32 hash bits
     so the product stays within a 63-bit immediate. *)
  let h32 = hash ~seed x lsr 30 in
  (h32 * n) lsr 32

type family = { seeds : int array; range : int }

let family rng ~k ~range =
  if k <= 0 then invalid_arg "Hashing.family: k must be positive";
  if range <= 0 then invalid_arg "Hashing.family: empty range";
  { seeds = Array.init k (fun _ -> Prng.bits rng); range }

let k fam = Array.length fam.seeds

let range fam = fam.range

let apply fam i x = hash_in ~seed:fam.seeds.(i) fam.range x
