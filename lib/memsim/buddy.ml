open Atp_util

(* Free blocks of order r live in [free_lists.(r)], a Page_list keyed
   by base frame, giving O(1) pop for allocation and O(1) removal of a
   specific buddy during coalescing.  [allocated] maps the base frame
   of each live allocation to its order so [free] can validate. *)

type t = {
  frames : int;
  max_order : int;
  free_lists : Page_list.t array;
  allocated : Int_table.t;        (* base frame -> order *)
  mutable free_count : int;
}

let max_order_for frames =
  let rec go order = if 1 lsl (order + 1) > frames then order else go (order + 1) in
  if frames <= 0 then 0 else go 0

let create ~frames =
  if frames < 1 then invalid_arg "Buddy.create: need at least one frame";
  let max_order = max_order_for frames in
  let t =
    {
      frames;
      max_order;
      free_lists = Array.init (max_order + 1) (fun _ -> Page_list.create ());
      allocated = Int_table.create ();
      free_count = frames;
    }
  in
  (* Decompose [0, frames) into maximal aligned blocks, largest
     first. *)
  let rec seed base remaining =
    if remaining > 0 then begin
      let rec fit order =
        if order = 0 then 0
        else if 1 lsl order <= remaining && base land ((1 lsl order) - 1) = 0
        then order
        else fit (order - 1)
      in
      let order = fit max_order in
      Page_list.push_back t.free_lists.(order) base;
      seed (base + (1 lsl order)) (remaining - (1 lsl order))
    end
  in
  seed 0 frames;
  t

let order_of_size n =
  if n < 1 || n land (n - 1) <> 0 then None
  else begin
    let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
    Some (go 0 n)
  end

let free_frames t = t.free_count

let used_frames t = t.frames - t.free_count

let rec split_down t order target =
  if order = target then ()
  else begin
    match Page_list.pop_front t.free_lists.(order) with
    | None -> assert false
    | Some base ->
      let half = 1 lsl (order - 1) in
      Page_list.push_front t.free_lists.(order - 1) (base + half);
      Page_list.push_front t.free_lists.(order - 1) base;
      split_down t (order - 1) target
  end

let alloc t ~order =
  if order < 0 then invalid_arg "Buddy.alloc: negative order";
  if order > t.max_order then None
  else begin
    (* Find the smallest order >= requested with a free block. *)
    let rec find o =
      if o > t.max_order then None
      else if not (Page_list.is_empty t.free_lists.(o)) then Some o
      else find (o + 1)
    in
    match find order with
    | None -> None
    | Some source ->
      split_down t source order;
      (match Page_list.pop_front t.free_lists.(order) with
       | None -> assert false
       | Some base ->
         Int_table.set t.allocated base order;
         t.free_count <- t.free_count - (1 lsl order);
         Some base)
  end

let free t ~base ~order =
  (match Int_table.find t.allocated base with
   | Some o when o = order -> ()
   | Some _ -> invalid_arg "Buddy.free: order mismatch"
   | None -> invalid_arg "Buddy.free: block not allocated");
  ignore (Int_table.remove t.allocated base);
  t.free_count <- t.free_count + (1 lsl order);
  (* Coalesce with the buddy while it is free at the same order. *)
  let rec coalesce base order =
    if order >= t.max_order then Page_list.push_front t.free_lists.(order) base
    else begin
      let buddy = base lxor (1 lsl order) in
      if buddy + (1 lsl order) <= t.frames
         && Page_list.remove t.free_lists.(order) buddy
      then coalesce (min base buddy) (order + 1)
      else Page_list.push_front t.free_lists.(order) base
    end
  in
  coalesce base order

let split_allocated t ~base ~order =
  (match Int_table.find t.allocated base with
   | Some o when o = order -> ()
   | Some _ -> invalid_arg "Buddy.split_allocated: order mismatch"
   | None -> invalid_arg "Buddy.split_allocated: block not allocated");
  ignore (Int_table.remove t.allocated base);
  for off = 0 to (1 lsl order) - 1 do
    Int_table.set t.allocated (base + off) 0
  done

let largest_free_order t =
  let rec go o =
    if o < 0 then None
    else if not (Page_list.is_empty t.free_lists.(o)) then Some o
    else go (o - 1)
  in
  go t.max_order

let check_invariants t =
  (* Every frame is covered exactly once by a free block or an
     allocation. *)
  let cover = Bitvec.create t.frames in
  let mark base order =
    for f = base to base + (1 lsl order) - 1 do
      if f < 0 || f >= t.frames then failwith "Buddy: block out of bounds";
      if Bitvec.get cover f then failwith "Buddy: overlapping blocks";
      Bitvec.set cover f
    done
  in
  Array.iteri
    (fun order list -> List.iter (fun base -> mark base order) (Page_list.to_list list))
    t.free_lists;
  let free_total = Bitvec.pop_count cover in
  if free_total <> t.free_count then failwith "Buddy: free_count mismatch";
  Int_table.iter (fun base order -> mark base order) t.allocated;
  if Bitvec.pop_count cover <> t.frames then failwith "Buddy: coverage gap"
