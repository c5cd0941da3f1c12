open Atp_util

type t = {
  capacity : int;
  pages : int array;        (* frame -> page; -1 when free *)
  referenced : Bitvec.t;
  index : Int_table.t;      (* page -> frame *)
  mutable hand : int;
  mutable size : int;
}

let no_page = -1

let name = "clock"

let create ?rng ~capacity () =
  ignore rng;
  if capacity < 1 then invalid_arg "Clock.create: capacity must be at least 1";
  {
    capacity;
    pages = Array.make capacity no_page;
    referenced = Bitvec.create capacity;
    index = Int_table.create ~initial_capacity:(2 * capacity) ();
    hand = 0;
    size = 0;
  }

let capacity t = t.capacity

let size t = t.size

let mem t page = Int_table.mem t.index page

(* Sweep the hand, clearing second-chance bits, until a frame with a
   clear bit comes up; free frames are taken immediately. *)
let claim_frame t =
  let rec sweep () =
    let frame = t.hand in
    t.hand <- (t.hand + 1) mod t.capacity;
    if t.pages.(frame) = no_page then frame
    else if Bitvec.get t.referenced frame then begin
      Bitvec.clear t.referenced frame;
      sweep ()
    end
    else frame
  in
  sweep ()

let access t page =
  match Int_table.find t.index page with
  | Some frame ->
    Bitvec.set t.referenced frame;
    Policy.Hit
  | None ->
    let frame = claim_frame t in
    let evicted =
      let old = t.pages.(frame) in
      if old = no_page then None
      else begin
        ignore (Int_table.remove t.index old);
        t.size <- t.size - 1;
        Some old
      end
    in
    t.pages.(frame) <- page;
    Bitvec.set t.referenced frame;
    Int_table.set t.index page frame;
    t.size <- t.size + 1;
    Policy.Miss { evicted }

let access_fast t page = Policy.fast_of_outcome (access t page)

let remove t page =
  match Int_table.find t.index page with
  | None -> false
  | Some frame ->
    t.pages.(frame) <- no_page;
    Bitvec.clear t.referenced frame;
    ignore (Int_table.remove t.index page);
    t.size <- t.size - 1;
    true

let resident t = Int_table.keys t.index
