type run = {
  lo : int;  (** first covered offset within the block *)
  hi : int;  (** last covered offset *)
  base_frame : int;  (** frame of offset [lo] *)
}

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  fills : int;
  coalesced_pages : int;
}

let zero = { lookups = 0; hits = 0; misses = 0; fills = 0; coalesced_pages = 0 }

type t = {
  max_run : int;
  shift : int;
  entries : run Tlb.t;  (* keyed by block id; one run per block *)
  mutable stats : stats;
}

let log2_exact n =
  if n < 1 || n land (n - 1) <> 0 then None
  else begin
    let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
    Some (go 0 n)
  end

let create ?(max_run = 8) ~entries () =
  match log2_exact max_run with
  | None -> invalid_arg "Coalesced.create: max_run must be a power of two"
  | Some shift ->
    { max_run; shift; entries = Tlb.create ~entries (); stats = zero }

let lookup t vpage =
  let block = vpage lsr t.shift in
  let off = vpage land (t.max_run - 1) in
  let s = t.stats in
  match Tlb.lookup t.entries block with
  | Some run when off >= run.lo && off <= run.hi ->
    t.stats <- { s with lookups = s.lookups + 1; hits = s.hits + 1 };
    Some (run.base_frame + (off - run.lo))
  | Some _ | None ->
    t.stats <- { s with lookups = s.lookups + 1; misses = s.misses + 1 };
    None

let fill t ~lookup_pt ~vpage ~frame =
  let block = vpage lsr t.shift in
  let off = vpage land (t.max_run - 1) in
  let base = block lsl t.shift in
  (* Grow the run while neighbors are mapped physically contiguously. *)
  let rec grow_left lo =
    if lo = 0 then 0
    else
      match lookup_pt (base + lo - 1) with
      | Some f when f = frame - (off - (lo - 1)) -> grow_left (lo - 1)
      | _ -> lo
  in
  let rec grow_right hi =
    if hi = t.max_run - 1 then hi
    else
      match lookup_pt (base + hi + 1) with
      | Some f when f = frame + (hi + 1 - off) -> grow_right (hi + 1)
      | _ -> hi
  in
  let lo = grow_left off and hi = grow_right off in
  let run = { lo; hi; base_frame = frame - (off - lo) } in
  ignore (Tlb.insert t.entries block run);
  let covered = hi - lo + 1 in
  let s = t.stats in
  t.stats <-
    { s with fills = s.fills + 1; coalesced_pages = s.coalesced_pages + covered };
  covered

let invalidate_page t vpage = Tlb.invalidate t.entries (vpage lsr t.shift)

let stats t = t.stats
