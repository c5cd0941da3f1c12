type level = { shift : int; entries : int }

type 'a t = { levels : (level * 'a Tlb.t) list }

let create ~levels () =
  if levels = [] then invalid_arg "Split.create: no levels";
  let shifts = List.map (fun l -> l.shift) levels in
  let sorted = List.sort_uniq compare shifts in
  if List.length sorted <> List.length shifts then
    invalid_arg "Split.create: duplicate shifts";
  {
    levels =
      List.map (fun l -> (l, Tlb.create ~entries:l.entries ())) levels;
  }

let levels t = List.map fst t.levels

let lookup t vpage =
  (* Probe every level (hardware does them in parallel); first hit
     wins, preferring larger pages, which subsume smaller ones. *)
  let probes =
    List.map
      (fun (level, tlb) -> (level.shift, Tlb.lookup tlb (vpage lsr level.shift)))
      (List.sort (fun (a, _) (b, _) -> compare b.shift a.shift) t.levels)
  in
  List.find_map
    (fun (shift, result) -> Option.map (fun payload -> (payload, shift)) result)
    probes

let insert t ~shift vpage payload =
  match List.find_opt (fun (l, _) -> l.shift = shift) t.levels with
  | None -> invalid_arg "Split.insert: unknown shift"
  | Some (_, tlb) -> Tlb.insert tlb (vpage lsr shift) payload

let invalidate_page t vpage =
  List.iter
    (fun (level, tlb) -> ignore (Tlb.invalidate tlb (vpage lsr level.shift)))
    t.levels
