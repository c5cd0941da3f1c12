type t = { registry : Registry.t; prefix : string }

let v ?(prefix = "") registry = { registry; prefix }

let null () = { registry = Registry.create (); prefix = "" }

let prefix t = t.prefix

let full t name = if t.prefix = "" then name else t.prefix ^ "." ^ name

let sub t name = { t with prefix = full t name }

let counter t name = Registry.counter t.registry (full t name)

let gauge t name = Registry.gauge t.registry (full t name)

let histogram t name = Registry.histogram t.registry (full t name)

let tracer t = Registry.trace t.registry
