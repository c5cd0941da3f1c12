(* Nodes 0..capacity-1 plus one sentinel at index [capacity].  A node
   is detached iff its next pointer is the [detached] marker. *)

type t = {
  next : int array;
  prev : int array;
  sentinel : int;
  mutable length : int;
}

let detached = -1

let create capacity =
  if capacity < 0 then invalid_arg "Lru_list.create: negative capacity";
  let next = Array.make (capacity + 1) detached in
  let prev = Array.make (capacity + 1) detached in
  next.(capacity) <- capacity;
  prev.(capacity) <- capacity;
  { next; prev; sentinel = capacity; length = 0 }

let check t i =
  if i < 0 || i >= t.sentinel then invalid_arg "Lru_list: node id out of range"

let mem t i =
  check t i;
  t.next.(i) <> detached

let length t = t.length

let link_after t ~anchor i =
  let nxt = t.next.(anchor) in
  t.next.(anchor) <- i;
  t.prev.(i) <- anchor;
  t.next.(i) <- nxt;
  t.prev.(nxt) <- i;
  t.length <- t.length + 1

let push_front t i =
  if mem t i then invalid_arg "Lru_list.push_front: already linked";
  link_after t ~anchor:t.sentinel i

let push_back t i =
  if mem t i then invalid_arg "Lru_list.push_back: already linked";
  link_after t ~anchor:t.prev.(t.sentinel) i

let remove t i =
  if not (mem t i) then invalid_arg "Lru_list.remove: not linked";
  let p = t.prev.(i) and n = t.next.(i) in
  t.next.(p) <- n;
  t.prev.(n) <- p;
  t.next.(i) <- detached;
  t.prev.(i) <- detached;
  t.length <- t.length - 1

let move_to_front t i =
  remove t i;
  link_after t ~anchor:t.sentinel i

let move_to_back t i =
  remove t i;
  link_after t ~anchor:t.prev.(t.sentinel) i

let front t =
  if t.length = 0 then None else Some t.next.(t.sentinel)

let back t =
  if t.length = 0 then None else Some t.prev.(t.sentinel)

let take_back t =
  if t.length = 0 then -1
  else begin
    let i = t.prev.(t.sentinel) in
    remove t i;
    i
  end

let pop_back t =
  let i = take_back t in
  if i < 0 then None else Some i

let iter_front_to_back f t =
  let rec loop i =
    if i <> t.sentinel then begin
      (* Capture next before f, so f may remove i. *)
      let n = t.next.(i) in
      f i;
      loop n
    end
  in
  loop t.next.(t.sentinel)

let to_list t =
  let acc = ref [] in
  iter_front_to_back (fun i -> acc := i :: !acc) t;
  List.rev !acc
