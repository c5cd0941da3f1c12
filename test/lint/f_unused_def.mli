(* unused-export fixture: F_unused_use calls [used] by name, packs
   this module at type [S], which reaches [packed], and calls
   [Nested.aliased] through a module alias; nothing reaches [unused],
   and [kept] is exempt by attribute. *)

module type S = sig
  val packed : int -> int
end

val used : int -> int
val unused : int -> int
val packed : int -> int

module Nested : sig
  val aliased : int -> int
end

val kept : int -> int
[@@atplint.allow "unused-export"]
(* Deliberate API: the allow names the rule it waives. *)
