type t = { mutable value : int }

let create () = { value = 0 }

let[@inline] incr t = t.value <- t.value + 1

let[@inline] add t n = t.value <- t.value + n

let value t = t.value

let reset t = t.value <- 0

let to_json t = Json.Int t.value
