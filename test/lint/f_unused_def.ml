module type S = sig
  val packed : int -> int
end

let used x = x + 1
let unused x = x - 1
let packed x = 2 * x

module Nested = struct
  let aliased x = x * x
end

let kept x = x
