open Atp_util

type t = {
  capacity : int;
  protected_target : int;
  probation : Page_list.t;  (* LRU order, resident *)
  protected_ : Page_list.t;  (* LRU order, resident *)
}

let name = "slru"

let create ?rng ~capacity () =
  ignore rng;
  if capacity < 1 then invalid_arg "Slru.create: capacity must be at least 1";
  {
    capacity;
    protected_target = max 1 (capacity * 4 / 5);
    probation = Page_list.create ();
    protected_ = Page_list.create ();
  }

let capacity t = t.capacity

let size t = Page_list.length t.probation + Page_list.length t.protected_

let mem t page = Page_list.mem t.probation page || Page_list.mem t.protected_ page

(* Overflowing the protected segment demotes its LRU back to
   probation (still resident), as in classic SLRU. *)
let promote t page =
  ignore (Page_list.remove t.probation page);
  Page_list.push_front t.protected_ page;
  if Page_list.length t.protected_ > t.protected_target then begin
    match Page_list.pop_back t.protected_ with
    | Some demoted -> Page_list.push_front t.probation demoted
    | None -> assert false
  end

let access t page =
  if Page_list.mem t.protected_ page then begin
    Page_list.move_to_front t.protected_ page;
    Policy.Hit
  end
  else if Page_list.mem t.probation page then begin
    promote t page;
    Policy.Hit
  end
  else begin
    let evicted =
      if size t >= t.capacity then begin
        (* Victim: probation LRU; if probation is empty, protected
           LRU. *)
        match Page_list.pop_back t.probation with
        | Some victim -> Some victim
        | None -> Page_list.pop_back t.protected_
      end
      else None
    in
    Page_list.push_front t.probation page;
    Policy.Miss { evicted }
  end

let access_fast t page = Policy.fast_of_outcome (access t page)

let remove t page =
  Page_list.remove t.probation page || Page_list.remove t.protected_ page

let resident t = Page_list.to_list t.probation @ Page_list.to_list t.protected_
