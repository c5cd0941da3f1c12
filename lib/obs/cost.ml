type t = { ios : int; tlb : int; decode : int; cheap : int; ipis : int }

let zero = { ios = 0; tlb = 0; decode = 0; cheap = 0; ipis = 0 }

let price ?tcache_epsilon ~epsilon t =
  let tcache_epsilon = Option.value tcache_epsilon ~default:epsilon in
  (* Negated, so a NaN price is rejected too. *)
  if not (0.0 <= tcache_epsilon && tcache_epsilon <= epsilon
          && epsilon < Float.infinity) then
    invalid_arg "Cost.price: need 0 <= tcache_epsilon <= epsilon < infinity";
  (* A zero count adds +0.0, which leaves every cost printed before the
     ledger existed bit-identical. *)
  float_of_int t.ios
  +. (epsilon *. float_of_int (t.tlb + t.decode))
  +. (tcache_epsilon *. float_of_int t.cheap)
  +. (epsilon *. float_of_int t.ipis)
