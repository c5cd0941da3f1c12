type outcome =
  | Hit
  | Miss of { evicted : int option }

(* The allocation-free outcome encoding for hot loops: page ids are
   non-negative throughout the simulator, so the two non-eviction
   cases fit below zero and an eviction is the victim page itself. *)

let fast_hit = -1

let fast_miss_free = -2

let[@inline] fast_is_hit f = f = fast_hit

let[@inline] fast_evicted f = if f >= 0 then f else -1

let outcome_of_fast f =
  if f = fast_hit then Hit
  else if f = fast_miss_free then Miss { evicted = None }
  else if f >= 0 then Miss { evicted = Some f }
  else invalid_arg "Policy.outcome_of_fast: bad encoding"

let fast_of_outcome = function
  | Hit -> fast_hit
  | Miss { evicted = None } -> fast_miss_free
  | Miss { evicted = Some victim } -> victim

module type S = sig
  type t

  val name : string
  val create : ?rng:Atp_util.Prng.t -> capacity:int -> unit -> t
  val capacity : t -> int
  val size : t -> int
  val mem : t -> int -> bool
  val access : t -> int -> outcome
  val access_fast : t -> int -> int
  val remove : t -> int -> bool
  val resident : t -> int list
end

type instance = {
  name : string;
  capacity : int;
  size : unit -> int;
  mem : int -> bool;
  access : int -> outcome;
  access_fast : int -> int;
  remove : int -> bool;
  resident : unit -> int list;
}

let instantiate (module P : S) ?rng ~capacity () =
  let state = P.create ?rng ~capacity () in
  {
    name = P.name;
    capacity;
    size = (fun () -> P.size state);
    mem = (fun page -> P.mem state page);
    access = (fun page -> P.access state page);
    access_fast = (fun page -> P.access_fast state page);
    remove = (fun page -> P.remove state page);
    resident = (fun () -> P.resident state);
  }

let evicted = function
  | Hit -> None
  | Miss { evicted } -> evicted

let is_hit = function
  | Hit -> true
  | Miss _ -> false
