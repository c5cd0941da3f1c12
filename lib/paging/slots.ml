open Atp_util

type t = {
  capacity : int;
  pages : int array;       (* slot -> page; -1 when free *)
  index : Int_table.t;     (* page -> slot *)
  free : int array;        (* stack of free slots *)
  mutable free_top : int;
}

let no_page = -1

let create capacity =
  if capacity < 1 then invalid_arg "Slots.create: capacity must be at least 1";
  {
    capacity;
    pages = Array.make capacity no_page;
    index = Int_table.create ~initial_capacity:(2 * capacity) ();
    free = Array.init capacity (fun i -> capacity - 1 - i);
    free_top = capacity;
  }

let capacity t = t.capacity

let size t = Int_table.length t.index

let is_full t = t.free_top = 0

let[@inline] find_slot t page = Int_table.find_or t.index page (-1)

let page_of_slot t slot =
  let page = t.pages.(slot) in
  if page = no_page then invalid_arg "Slots.page_of_slot: free slot";
  page

let alloc t page =
  if t.free_top = 0 then invalid_arg "Slots.alloc: cache full";
  if Int_table.mem t.index page then invalid_arg "Slots.alloc: page already resident";
  t.free_top <- t.free_top - 1;
  let slot = t.free.(t.free_top) in
  t.pages.(slot) <- page;
  Int_table.set t.index page slot;
  slot

let release t slot =
  let page = page_of_slot t slot in
  t.pages.(slot) <- no_page;
  ignore (Int_table.remove t.index page);
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  page

let resident t = Int_table.keys t.index
