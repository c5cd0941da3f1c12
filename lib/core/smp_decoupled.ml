open Atp_paging

type report = {
  accesses : int;
  ios : int;
  tlb_fills : int;
  decoding_misses : int;
  psi_update_ipis : int;
}

(* The decoupled scheme's TLB-membership table is per-scheme, but here
   coverage differs per core.  We track coverage ourselves: a huge
   page's psi value must exist while ANY core covers it, so we
   reference-count coverage across cores and drive Decoupled's
   tlb_add/tlb_remove at the 0 <-> 1 transitions. *)

type t = {
  d : Decoupled.t;
  xs : Policy.instance array;  (* per-core TLB policies over huge pages *)
  y : Policy.instance;
  h_max : int;
  coverage : Atp_util.Int_table.t;  (* huge page -> covering core count *)
  mutable accesses : int;
  mutable ios : int;
  mutable tlb_fills : int;
  mutable decoding_misses : int;
  mutable psi_update_ipis : int;
}

let create ?seed ~params ~cores ~tlb_entries_per_core ~y () =
  if cores < 1 then invalid_arg "Smp_decoupled.create: need a core";
  let budget = Params.usable_pages params in
  if y.Policy.capacity > budget then
    invalid_arg "Smp_decoupled.create: Y exceeds the (1-delta)P budget";
  let d = Decoupled.create ?seed params in
  {
    d;
    xs =
      Array.init cores (fun _ ->
          Policy.instantiate (module Lru) ~capacity:tlb_entries_per_core ());
    y;
    h_max = Decoupled.h_max d;
    coverage = Atp_util.Int_table.create ();
    accesses = 0;
    ios = 0;
    tlb_fills = 0;
    decoding_misses = 0;
    psi_update_ipis = 0;
  }

let cores t = Array.length t.xs

let cover t u =
  let count = Option.value (Atp_util.Int_table.find t.coverage u) ~default:0 in
  if count = 0 then Decoupled.tlb_add t.d u;
  Atp_util.Int_table.set t.coverage u (count + 1)

let uncover t u =
  match Atp_util.Int_table.find t.coverage u with
  | None -> ()
  | Some 1 ->
    ignore (Atp_util.Int_table.remove t.coverage u);
    Decoupled.tlb_remove t.d u
  | Some count -> Atp_util.Int_table.set t.coverage u (count - 1)

let access t ~core page =
  if core < 0 || core >= Array.length t.xs then
    invalid_arg "Smp_decoupled.access: bad core";
  t.accesses <- t.accesses + 1;
  let u = page / t.h_max in
  (match t.xs.(core).Policy.access u with
   | Policy.Hit -> ()
   | Policy.Miss { evicted } ->
     t.tlb_fills <- t.tlb_fills + 1;
     (match evicted with
      | Some victim -> uncover t victim
      | None -> ());
     cover t u);
  (* Remote TLB copies of a huge page's psi value must be refreshed
     whenever a constituent's residency changes. *)
  let notify_remote_holders v =
    let vu = v / t.h_max in
    match Atp_util.Int_table.find t.coverage vu with
    | Some holders ->
      let remote = holders - (if t.xs.(core).Policy.mem vu then 1 else 0) in
      t.psi_update_ipis <- t.psi_update_ipis + max 0 remote
    | None -> ()
  in
  (match t.y.Policy.access page with
   | Policy.Hit -> ()
   | Policy.Miss { evicted } ->
     t.ios <- t.ios + 1;
     (match evicted with
      | None -> ()
      | Some victim ->
        Decoupled.ram_evict t.d victim;
        notify_remote_holders victim);
     Decoupled.ram_insert t.d page;
     notify_remote_holders page);
  match Decoupled.translate t.d page with
  | Decoupled.Frame _ -> ()
  | Decoupled.Decode_fault -> t.decoding_misses <- t.decoding_misses + 1
  | Decoupled.Not_covered -> assert false

let report t =
  {
    accesses = t.accesses;
    ios = t.ios;
    tlb_fills = t.tlb_fills;
    decoding_misses = t.decoding_misses;
    psi_update_ipis = t.psi_update_ipis;
  }

let run_shared ?warmup t trace =
  let n = Array.length t.xs in
  (match warmup with
   | Some w -> Array.iteri (fun i page -> access t ~core:(i mod n) page) w
   | None -> ());
  t.accesses <- 0;
  t.ios <- 0;
  t.tlb_fills <- 0;
  t.decoding_misses <- 0;
  t.psi_update_ipis <- 0;
  Array.iteri (fun i page -> access t ~core:(i mod n) page) trace;
  report t
