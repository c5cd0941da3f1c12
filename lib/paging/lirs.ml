open Atp_util

(* Page states:
   - Lir: resident, in the stack S.
   - Hir_resident: resident, in the queue Q, possibly also in S.
   - Hir_ghost: non-resident, in S only (a history record).
   Pages absent from the table are unknown.

   S is a recency stack (front = most recent); Q is the FIFO of
   resident HIR pages, whose front is the eviction victim.  [ghosts]
   tracks ghost insertion order so the stack can be bounded. *)

type state =
  | Lir
  | Hir_resident
  | Hir_ghost

type t = {
  capacity : int;
  lir_target : int;  (* max LIR pages: capacity - hir window *)
  s : Page_list.t;
  q : Page_list.t;
  ghosts : Page_list.t;  (* non-resident HIR, oldest at back *)
  state : state Int_table.Poly.t;
  mutable lir_count : int;
}

let name = "lirs"

let create ?rng ~capacity () =
  ignore rng;
  if capacity < 1 then invalid_arg "Lirs.create: capacity must be at least 1";
  let hir_window = max 1 (capacity / 100) in
  {
    capacity;
    lir_target = max 1 (capacity - hir_window);
    s = Page_list.create ();
    q = Page_list.create ();
    ghosts = Page_list.create ();
    state = Int_table.Poly.create ~initial_capacity:64 ();
    lir_count = 0;
  }

let capacity t = t.capacity

let state_of t page = Int_table.Poly.find t.state page

let is_resident = function
  | Some Lir | Some Hir_resident -> true
  | Some Hir_ghost | None -> false

let mem t page = is_resident (state_of t page)

let size t = t.lir_count + Page_list.length t.q

(* Remove non-LIR entries from the bottom of S so its bottom is always
   a LIR page. *)
let prune t =
  let rec go () =
    match Page_list.back t.s with
    | None -> ()
    | Some bottom ->
      (match state_of t bottom with
       | Some Lir -> ()
       | Some Hir_resident ->
         ignore (Page_list.remove t.s bottom);
         go ()
       | Some Hir_ghost ->
         ignore (Page_list.remove t.s bottom);
         ignore (Page_list.remove t.ghosts bottom);
         ignore (Int_table.Poly.remove t.state bottom);
         go ()
       | None ->
         (* Everything in S has a state. *)
         assert false)
  in
  go ()

(* Bound the stack: discard the oldest ghosts beyond ~2x capacity. *)
let bound_stack t =
  while Page_list.length t.s > 2 * t.capacity && not (Page_list.is_empty t.ghosts) do
    match Page_list.pop_back t.ghosts with
    | None -> ()
    | Some ghost ->
      ignore (Page_list.remove t.s ghost);
      ignore (Int_table.Poly.remove t.state ghost)
  done

let push_top t page =
  ignore (Page_list.remove t.s page);
  Page_list.push_front t.s page;
  bound_stack t

(* Demote the LIR page at the bottom of S into the resident-HIR
   queue. *)
let demote_bottom_lir t =
  prune t;
  match Page_list.back t.s with
  | Some bottom when state_of t bottom = Some Lir ->
    ignore (Page_list.remove t.s bottom);
    Int_table.Poly.set t.state bottom Hir_resident;
    t.lir_count <- t.lir_count - 1;
    Page_list.push_front t.q bottom;
    prune t
  | _ -> assert false

(* Free one resident slot; returns the evicted page. *)
let evict t =
  match Page_list.pop_back t.q with
  | Some victim ->
    if Page_list.mem t.s victim then begin
      Int_table.Poly.set t.state victim Hir_ghost;
      Page_list.push_front t.ghosts victim
    end
    else ignore (Int_table.Poly.remove t.state victim);
    victim
  | None ->
    (* No resident HIR (start-up, all-LIR cache): demote then evict. *)
    demote_bottom_lir t;
    (match Page_list.pop_back t.q with
     | Some victim ->
       if Page_list.mem t.s victim then begin
         Int_table.Poly.set t.state victim Hir_ghost;
         Page_list.push_front t.ghosts victim
       end
       else ignore (Int_table.Poly.remove t.state victim);
       victim
     | None -> assert false)

let access t page =
  match state_of t page with
  | Some Lir ->
    let was_bottom = Page_list.back t.s = Some page in
    push_top t page;
    if was_bottom then prune t;
    Policy.Hit
  | Some Hir_resident ->
    if Page_list.mem t.s page then begin
      (* Reuse distance is inside the stack: promote to LIR. *)
      Int_table.Poly.set t.state page Lir;
      t.lir_count <- t.lir_count + 1;
      ignore (Page_list.remove t.q page);
      push_top t page;
      if t.lir_count > t.lir_target then demote_bottom_lir t
    end
    else begin
      (* Long reuse distance: stay HIR, refresh both recencies. *)
      push_top t page;
      ignore (Page_list.remove t.q page);
      Page_list.push_front t.q page
    end;
    Policy.Hit
  | Some Hir_ghost | None ->
    let ghost_hit = state_of t page = Some Hir_ghost in
    let evicted = if size t >= t.capacity then Some (evict t) else None in
    if ghost_hit then begin
      (* The page proved a short reuse distance: it enters as LIR. *)
      ignore (Page_list.remove t.ghosts page);
      Int_table.Poly.set t.state page Lir;
      t.lir_count <- t.lir_count + 1;
      push_top t page;
      if t.lir_count > t.lir_target then demote_bottom_lir t
    end
    else if t.lir_count < t.lir_target then begin
      (* Warm-up: fill the LIR set directly. *)
      Int_table.Poly.set t.state page Lir;
      t.lir_count <- t.lir_count + 1;
      push_top t page
    end
    else begin
      Int_table.Poly.set t.state page Hir_resident;
      push_top t page;
      Page_list.push_front t.q page
    end;
    Policy.Miss { evicted }

let access_fast t page = Policy.fast_of_outcome (access t page)

let remove t page =
  match state_of t page with
  | Some Lir ->
    ignore (Page_list.remove t.s page);
    ignore (Int_table.Poly.remove t.state page);
    t.lir_count <- t.lir_count - 1;
    prune t;
    true
  | Some Hir_resident ->
    ignore (Page_list.remove t.q page);
    ignore (Page_list.remove t.s page);
    ignore (Int_table.Poly.remove t.state page);
    true
  | Some Hir_ghost | None -> false

let resident t =
  Int_table.Poly.fold
    (fun page state acc ->
      match state with
      | Lir | Hir_resident -> page :: acc
      | Hir_ghost -> acc)
    t.state []
