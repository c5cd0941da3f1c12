open Atp_util

type t = {
  capacity : int;
  t1 : Page_list.t;  (* resident, seen once recently *)
  t2 : Page_list.t;  (* resident, seen at least twice *)
  b1 : Page_list.t;  (* ghosts evicted from t1 *)
  b2 : Page_list.t;  (* ghosts evicted from t2 *)
  mutable p : int;   (* adaptive target size of t1 *)
}

let name = "arc"

let create ?rng ~capacity () =
  ignore rng;
  if capacity < 1 then invalid_arg "Arc.create: capacity must be at least 1";
  {
    capacity;
    t1 = Page_list.create ();
    t2 = Page_list.create ();
    b1 = Page_list.create ();
    b2 = Page_list.create ();
    p = 0;
  }

let capacity t = t.capacity

let size t = Page_list.length t.t1 + Page_list.length t.t2

let mem t page = Page_list.mem t.t1 page || Page_list.mem t.t2 page

(* REPLACE from the ARC paper: evict the LRU of t1 or t2 according to
   the adaptive target p, pushing the victim onto its ghost list. *)
let replace t ~in_b2 =
  let from_t1 =
    let l1 = Page_list.length t.t1 in
    l1 >= 1 && (l1 > t.p || (in_b2 && l1 = t.p))
  in
  if from_t1 then
    match Page_list.pop_back t.t1 with
    | None -> assert false
    | Some victim ->
      Page_list.push_front t.b1 victim;
      victim
  else
    match Page_list.pop_back t.t2 with
    | None -> assert false
    | Some victim ->
      Page_list.push_front t.b2 victim;
      victim

let access t page =
  if Page_list.mem t.t1 page then begin
    (* Case I (t1 hit): promote to t2. *)
    ignore (Page_list.remove t.t1 page);
    Page_list.push_front t.t2 page;
    Policy.Hit
  end
  else if Page_list.mem t.t2 page then begin
    Page_list.move_to_front t.t2 page;
    Policy.Hit
  end
  else if Page_list.mem t.b1 page then begin
    (* Case II (b1 ghost hit): grow the recency side. *)
    let delta =
      max 1 (Page_list.length t.b2 / max 1 (Page_list.length t.b1))
    in
    t.p <- min t.capacity (t.p + delta);
    let victim = replace t ~in_b2:false in
    ignore (Page_list.remove t.b1 page);
    Page_list.push_front t.t2 page;
    Policy.Miss { evicted = Some victim }
  end
  else if Page_list.mem t.b2 page then begin
    (* Case III (b2 ghost hit): grow the frequency side. *)
    let delta =
      max 1 (Page_list.length t.b1 / max 1 (Page_list.length t.b2))
    in
    t.p <- max 0 (t.p - delta);
    let victim = replace t ~in_b2:true in
    ignore (Page_list.remove t.b2 page);
    Page_list.push_front t.t2 page;
    Policy.Miss { evicted = Some victim }
  end
  else begin
    (* Case IV: a cold miss. *)
    let c = t.capacity in
    let l1 = Page_list.length t.t1 + Page_list.length t.b1 in
    let total =
      l1 + Page_list.length t.t2 + Page_list.length t.b2
    in
    let evicted =
      if l1 = c then begin
        if Page_list.length t.t1 < c then begin
          ignore (Page_list.pop_back t.b1);
          Some (replace t ~in_b2:false)
        end
        else
          (* b1 empty, t1 full: drop the LRU of t1 directly. *)
          match Page_list.pop_back t.t1 with
          | None -> assert false
          | Some victim -> Some victim
      end
      else begin
        if total >= c then begin
          if total = 2 * c then ignore (Page_list.pop_back t.b2);
          if size t >= c then Some (replace t ~in_b2:false) else None
        end
        else None
      end
    in
    Page_list.push_front t.t1 page;
    Policy.Miss { evicted }
  end

let access_fast t page = Policy.fast_of_outcome (access t page)

let remove t page =
  (* Also purge ghosts so a shootdown fully forgets the page. *)
  let was_resident =
    Page_list.remove t.t1 page || Page_list.remove t.t2 page
  in
  ignore (Page_list.remove t.b1 page : bool);
  ignore (Page_list.remove t.b2 page : bool);
  was_resident

let resident t = Page_list.to_list t.t1 @ Page_list.to_list t.t2
