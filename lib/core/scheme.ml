open Atp_paging
open Atp_memsim

type t = {
  name : string;
  access : int -> unit;
  ledger : unit -> Atp_obs.Cost.t;
  reset : unit -> unit;
}

let run ?warmup t trace =
  (match warmup with
   | Some w -> Array.iter t.access w
   | None -> ());
  t.reset ();
  Array.iter t.access trace;
  t

let machine name cfg =
  let m = Machine.create cfg in
  {
    name;
    access = Machine.access m ~core:0;
    ledger = (fun () -> Machine.ledger (Machine.counters m));
    reset = (fun () -> Machine.reset_counters m);
  }

let physical ?(tlb_entries = 1536) ~ram_pages ~huge_size () =
  machine
    (Printf.sprintf "physical-%d" huge_size)
    { Machine.default_config with ram_pages; tlb_entries; huge_size }

let physical_reach ?(tlb_entries = 1536) ~ram_pages ~huge_size ~tcache_entries
    () =
  if tcache_entries < 1 then
    invalid_arg "Scheme.physical_reach: tier needs at least one entry";
  machine
    (Printf.sprintf "reach-%d-tc%d" huge_size tcache_entries)
    { Machine.default_config with
      ram_pages; tlb_entries; huge_size; tcache_entries }

let thp ?(base_tlb_entries = 1536) ?(huge_tlb_entries = 16) ~ram_pages
    ~huge_size () =
  let m =
    Thp.create
      { Thp.default_config with
        ram_pages; base_tlb_entries; huge_tlb_entries; huge_size }
  in
  {
    name = Printf.sprintf "thp-%d" huge_size;
    access = Thp.access m;
    ledger = (fun () -> Thp.ledger (Thp.counters m));
    reset = (fun () -> Thp.reset_counters m);
  }

let superpage ?(base_tlb_entries = 1536) ?(huge_tlb_entries = 16) ~ram_pages
    ~huge_size () =
  let m =
    Superpage.create
      { Superpage.ram_pages; base_tlb_entries; huge_tlb_entries; huge_size }
  in
  {
    name = Printf.sprintf "superpage-%d" huge_size;
    access = Superpage.access m;
    ledger = (fun () -> Superpage.ledger (Superpage.counters m));
    reset = (fun () -> Superpage.reset_counters m);
  }

let decoupled ?(tlb_entries = 1536) ?seed ?(x_policy = (module Lru : Policy.S))
    ?(y_policy = (module Lru : Policy.S)) ~ram_pages ~w () =
  let params = Params.derive ~p:ram_pages ~w () in
  let x = Policy.instantiate x_policy ~capacity:tlb_entries () in
  let y =
    Policy.instantiate y_policy ~capacity:(Params.usable_pages params) ()
  in
  let z = Simulation.create ?seed ~params ~x ~y () in
  {
    name = Printf.sprintf "decoupled-h%d" params.Params.h_max;
    access = Simulation.access z;
    ledger = (fun () -> Simulation.ledger (Simulation.report z));
    reset = (fun () -> Simulation.reset_report z);
  }

let hybrid ?(tlb_entries = 1536) ~ram_pages ~chunk ~w () =
  let h = Hybrid.create ~ram_pages ~chunk ~w ~tlb_entries () in
  {
    name = Printf.sprintf "hybrid-c%d" chunk;
    access = Hybrid.access h;
    ledger = (fun () -> Hybrid.ledger (Hybrid.report h));
    reset = (fun () -> Hybrid.reset_report h);
  }

let compare_all ?warmup ?tcache_epsilon ~epsilon schemes trace =
  List.map
    (fun scheme ->
      let l = (run ?warmup scheme trace).ledger () in
      ( scheme.name,
        l.Atp_obs.Cost.ios,
        l.tlb + l.cheap,
        Atp_obs.Cost.price ?tcache_epsilon ~epsilon l ))
    schemes
