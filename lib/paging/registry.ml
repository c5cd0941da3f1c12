let all : (module Policy.S) list =
  [
    (module Lru);
    (module Fifo);
    (module Clock);
    (module Lfu);
    (module Mru);
    (module Rand_policy);
    (module Two_q);
    (module Arc);
    (module Slru);
    (module Lirs);
  ]

let name_of (module P : Policy.S) = P.name

let names = List.map name_of all

let find name =
  List.find_opt (fun p -> String.equal (name_of p) name) all

let find_exn name =
  match find name with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "unknown policy %S (known: %s)" name
         (String.concat ", " names))
