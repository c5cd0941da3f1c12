(* Tests for the unified scheme interface. *)

open Atp_core
open Atp_workloads
open Atp_util

let check = Alcotest.check

module Cost = Atp_obs.Cost

(* --- Scheme ------------------------------------------------------------- *)

let bimodal_trace seed n =
  let rng = Prng.create ~seed () in
  Workload.generate
    (Bimodal.create ~hot_fraction:0.999 ~hot_pages:256 ~virtual_pages:(1 lsl 15) rng)
    n

let test_scheme_physical_matches_machine () =
  let trace = bimodal_trace 1 20_000 in
  let scheme =
    Scheme.run (Scheme.physical ~tlb_entries:64 ~ram_pages:2048 ~huge_size:8 ()) trace
  in
  let m =
    Atp_memsim.Machine.create
      { Atp_memsim.Machine.default_config with
        ram_pages = 2048; tlb_entries = 64; huge_size = 8 }
  in
  let c = Atp_memsim.Machine.run m trace in
  let l = scheme.Scheme.ledger () in
  check Alcotest.int "same ios" c.Atp_memsim.Machine.ios l.Cost.ios;
  check Alcotest.int "same tlb" c.Atp_memsim.Machine.tlb_misses l.Cost.tlb

let test_scheme_decoupled_counts () =
  let trace = bimodal_trace 2 20_000 in
  let scheme =
    Scheme.run (Scheme.decoupled ~tlb_entries:64 ~ram_pages:2048 ~w:64 ()) trace
  in
  let l = scheme.Scheme.ledger () in
  check Alcotest.bool "did IOs" true (l.Cost.ios > 0);
  check Alcotest.bool "cost positive" true (Cost.price ~epsilon:0.01 l > 0.0)

let test_scheme_reset_via_run () =
  let trace = bimodal_trace 3 5_000 in
  let warmup = bimodal_trace 3 5_000 in
  let scheme = Scheme.physical ~tlb_entries:64 ~ram_pages:2048 ~huge_size:1 () in
  let scheme = Scheme.run ~warmup scheme trace in
  (* Counters reflect only the measured trace. *)
  check Alcotest.bool "warmup not counted" true
    ((scheme.Scheme.ledger ()).Cost.tlb <= Array.length trace)

let test_scheme_compare_all () =
  let ram = 2048 in
  let trace = bimodal_trace 4 30_000 in
  let warmup = bimodal_trace 4 30_000 in
  let rows =
    Scheme.compare_all ~warmup ~epsilon:0.01
      [
        Scheme.physical ~tlb_entries:64 ~ram_pages:ram ~huge_size:1 ();
        Scheme.physical ~tlb_entries:64 ~ram_pages:ram ~huge_size:64 ();
        Scheme.thp ~base_tlb_entries:64 ~huge_tlb_entries:8 ~ram_pages:ram
          ~huge_size:64 ();
        Scheme.superpage ~base_tlb_entries:64 ~huge_tlb_entries:8 ~ram_pages:ram
          ~huge_size:64 ();
        Scheme.decoupled ~tlb_entries:64 ~ram_pages:ram ~w:64 ();
        Scheme.hybrid ~tlb_entries:64 ~ram_pages:ram ~chunk:4 ~w:64 ();
      ]
      trace
  in
  check Alcotest.int "six rows" 6 (List.length rows);
  List.iter
    (fun (name, ios, tlb, cost) ->
      check Alcotest.bool (name ^ ": cost consistent") true
        (cost >= float_of_int ios && ios >= 0 && tlb >= 0))
    rows;
  (* The decoupled scheme must beat physical-64 on this workload at
     eps = 0.01 (the paper's headline). *)
  let cost_of prefix =
    List.find_map
      (fun (name, _, _, cost) ->
        if String.length name >= String.length prefix
           && String.sub name 0 (String.length prefix) = prefix
        then Some cost
        else None)
      rows
  in
  let z = Option.get (cost_of "decoupled") in
  let p64 = Option.get (cost_of "physical-64") in
  check Alcotest.bool
    (Printf.sprintf "decoupled (%.1f) beats physical-64 (%.1f)" z p64)
    true (z < p64)

(* A price above ε for a recovered miss is refused, not summed. *)
let test_scheme_compare_all_rejects_tcache_price () =
  let epsilon = 0.01 in
  Alcotest.check_raises "tcache_epsilon > epsilon"
    (Invalid_argument "Cost.price: need 0 <= tcache_epsilon <= epsilon < infinity")
    (fun () ->
      ignore
        (Scheme.compare_all ~tcache_epsilon:(2. *. epsilon) ~epsilon
           [ Scheme.physical ~tlb_entries:64 ~ram_pages:2048 ~huge_size:1 () ]
           (bimodal_trace 5 1_000)))

(* Priced at the paper's defaults, a recovered miss costs ε: the
   reach scheme's ledger costs what Machine.cost bills the same
   counters, ios + ε·tlb_misses up to one rounding. *)
let test_scheme_reach_default_price () =
  let trace = bimodal_trace 6 20_000 in
  let scheme =
    Scheme.run
      (Scheme.physical_reach ~tlb_entries:64 ~ram_pages:2048 ~huge_size:1
         ~tcache_entries:512 ())
      trace
  in
  let m =
    Atp_memsim.Machine.create
      { Atp_memsim.Machine.default_config with
        ram_pages = 2048; tlb_entries = 64; tcache_entries = 512 }
  in
  let c = Atp_memsim.Machine.run m trace in
  check Alcotest.bool "the tier recovered misses" true
    (c.Atp_memsim.Machine.tcache_hits > 0);
  let price = Cost.price ~epsilon:0.01 (scheme.Scheme.ledger ()) in
  check (Alcotest.float 0.) "reach ledger = Machine.cost"
    (Atp_memsim.Machine.cost ~epsilon:0.01 c)
    price;
  check (Alcotest.float 1e-9) "every miss at epsilon"
    (float_of_int c.ios +. (0.01 *. float_of_int c.tlb_misses))
    price

let () =
  Alcotest.run "atp.scheme"
    [
      ( "scheme",
        [
          Alcotest.test_case "physical = machine" `Quick test_scheme_physical_matches_machine;
          Alcotest.test_case "decoupled counts" `Quick test_scheme_decoupled_counts;
          Alcotest.test_case "reset via run" `Quick test_scheme_reset_via_run;
          Alcotest.test_case "compare all" `Quick test_scheme_compare_all;
          Alcotest.test_case "compare all rejects tcache price > epsilon"
            `Quick test_scheme_compare_all_rejects_tcache_price;
          Alcotest.test_case "reach ledger at default prices = machine cost"
            `Quick test_scheme_reach_default_price;
        ] );
    ]
