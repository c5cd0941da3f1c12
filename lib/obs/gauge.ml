type t = { mutable value : float }

let create () = { value = 0.0 }

let set_int t v = t.value <- float_of_int v

let value t = t.value

let reset t = t.value <- 0.0

let to_json t = Json.Float t.value
