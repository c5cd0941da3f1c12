(* An array-pool intrusive list: nodes are slots in flat int arrays,
   recycled through a free list threaded over [next], and the
   page->slot index is an open-addressing Int_table.  Steady-state
   operations (hits, moves, evictions) touch only int arrays — no node
   or option is allocated per access; the arrays double when the pool
   is exhausted, which amortizes away. *)

type t = {
  mutable pages : int array;  (* slot -> page; meaningful only when linked *)
  mutable next : int array;   (* slot -> next slot, or nil; free-list link *)
  mutable prev : int array;   (* slot -> prev slot, or nil *)
  index : Int_table.t;        (* page -> slot *)
  mutable first : int;        (* nil when empty *)
  mutable last : int;         (* nil when empty *)
  mutable free : int;         (* head of the free-slot list, nil when full *)
  mutable len : int;
}

let nil = -1

let initial_slots = 64

let thread_free next lo hi =
  (* Slots [lo..hi-1] become the free list lo -> lo+1 -> ... -> nil. *)
  for i = lo to hi - 2 do
    next.(i) <- i + 1
  done;
  next.(hi - 1) <- nil

let create () =
  let next = Array.make initial_slots nil in
  thread_free next 0 initial_slots;
  {
    pages = Array.make initial_slots nil;
    next;
    prev = Array.make initial_slots nil;
    index = Int_table.create ~initial_capacity:64 ();
    first = nil;
    last = nil;
    free = 0;
    len = 0;
  }

let length t = t.len

let is_empty t = t.len = 0

let mem t page = Int_table.mem t.index page

let grow t =
  let old = Array.length t.pages in
  let cap = 2 * old in
  let extend a fill =
    let bigger = Array.make cap fill in
    Array.blit a 0 bigger 0 old;
    bigger
  in
  t.pages <- extend t.pages nil;
  t.prev <- extend t.prev nil;
  t.next <- extend t.next nil;
  thread_free t.next old cap;
  t.free <- old

let alloc_slot t page =
  if t.free = nil then grow t;
  let slot = t.free in
  t.free <- t.next.(slot);
  t.pages.(slot) <- page;
  Int_table.set t.index page slot;
  t.len <- t.len + 1;
  slot

(* Unlink [slot] from the chain only; the caller decides whether the
   slot is being recycled or immediately relinked. *)
let unchain t slot =
  let p = t.prev.(slot) and n = t.next.(slot) in
  if p = nil then t.first <- n else t.next.(p) <- n;
  if n = nil then t.last <- p else t.prev.(n) <- p

let release_slot t slot =
  ignore (Int_table.remove t.index t.pages.(slot));
  t.pages.(slot) <- nil;
  t.next.(slot) <- t.free;
  t.free <- slot;
  t.len <- t.len - 1

let chain_front t slot =
  t.prev.(slot) <- nil;
  t.next.(slot) <- t.first;
  if t.first = nil then t.last <- slot else t.prev.(t.first) <- slot;
  t.first <- slot

let chain_back t slot =
  t.next.(slot) <- nil;
  t.prev.(slot) <- t.last;
  if t.last = nil then t.first <- slot else t.next.(t.last) <- slot;
  t.last <- slot

let push_front t page =
  if mem t page then invalid_arg "Page_list.push_front: duplicate page";
  chain_front t (alloc_slot t page)

let push_back t page =
  if mem t page then invalid_arg "Page_list.push_back: duplicate page";
  chain_back t (alloc_slot t page)

let remove t page =
  let slot = Int_table.find_or t.index page nil in
  if slot = nil then false
  else begin
    unchain t slot;
    release_slot t slot;
    true
  end

let move_to_front t page =
  let slot = Int_table.find_or t.index page nil in
  if slot = nil then invalid_arg "Page_list.move_to_front: absent page"
  else if t.first <> slot then begin
    unchain t slot;
    chain_front t slot
  end

let back t = if t.last = nil then None else Some t.pages.(t.last)

let take_front t =
  if t.first = nil then nil
  else begin
    let slot = t.first in
    let page = t.pages.(slot) in
    unchain t slot;
    release_slot t slot;
    page
  end

let take_back t =
  if t.last = nil then nil
  else begin
    let slot = t.last in
    let page = t.pages.(slot) in
    unchain t slot;
    release_slot t slot;
    page
  end

let pop_front t =
  let page = take_front t in
  if page = nil then None else Some page

let pop_back t =
  let page = take_back t in
  if page = nil then None else Some page

let to_list t =
  let rec go acc slot =
    if slot = nil then List.rev acc else go (t.pages.(slot) :: acc) t.next.(slot)
  in
  go [] t.first
