(* The fleet differential harness: tenant-sharded parallel replay must
   be byte-identical to interleaved sequential replay — per-tenant
   reports AND obs snapshots — across policies and shard counts;
   tenants must be perfectly isolated;
   counters must be conserved; the contended machine must match a
   naive association-list model; and a 100k-tenant churn run must
   complete in O(active-tenant) memory with zero ASID leaks. *)

open Atp_util
open Atp_core
open Atp_paging
open Atp_workloads
open Atp_fleet
module Obs = Atp_obs
module Engine = Atp_engine.Engine

let check = Alcotest.check

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let params = Params.derive ~p:2048 ~w:64 ()

let policies = [ "lru"; "fifo"; "2q" ]

let shard_counts = [ 1; 2; 4; 8 ]

(* Per-tenant simulator factories: seeds are a function of the tenant
   id only, so worker domains build identical simulators whatever the
   schedule. *)
let make_sim ~policy tenant =
  let x =
    Policy.instantiate
      (Registry.find_exn policy)
      ~rng:(Prng.create ~seed:(11 + tenant) ())
      ~capacity:16 ()
  in
  let y =
    Policy.instantiate
      (Registry.find_exn policy)
      ~rng:(Prng.create ~seed:(13 + tenant) ())
      ~capacity:64 ()
  in
  Simulation.create ~seed:(7 + tenant) ~params ~x ~y ()

let spec =
  Mix.spec ~name:"fleet-mix" ~weights:[| 0.7; 0.3 |]
    [|
      (fun rng -> Simple.zipf ~virtual_pages:1024 rng);
      (fun rng -> Simple.uniform ~virtual_pages:1024 rng);
    |]

let churn_cfg =
  {
    Lifecycle.seed = 42;
    ticks = 400;
    arrival_rate = 0.8;
    mean_lifetime = 60.0;
    accesses_per_tick = 32;
    max_active = 64;
    initial = 8;
    pinned = 2;
    pinned_weight = 8.0;
  }

let make_source () = Lifecycle.source churn_cfg ~spec

let tenant_report_t : Engine.tenant_report Alcotest.testable =
  Alcotest.testable Engine.pp_tenant_report ( = )

let source_of_events events =
  let i = ref 0 in
  fun () ->
    if !i >= Array.length events then None
    else begin
      let e = events.(!i) in
      incr i;
      Some e
    end

(* ------------------------------------------------------------------ *)
(* Differential: sharded = sequential (the one-shard pass)              *)
(* ------------------------------------------------------------------ *)

let test_sharded_matches_sequential () =
  List.iter
    (fun policy ->
      let reg_seq = Obs.Registry.create () in
      let seq =
        Engine.replay_tenants ~obs:(Obs.Scope.v reg_seq) ~shards:1
          ~make_sim:(make_sim ~policy) make_source
      in
      check Alcotest.bool
        (policy ^ ": some tenants reported")
        true
        (List.length seq > 50);
      List.iter
        (fun shards ->
          let reg_sh = Obs.Registry.create () in
          let sharded =
            Engine.replay_tenants
              ~obs:(Obs.Scope.v reg_sh)
              ~shards ~make_sim:(make_sim ~policy) make_source
          in
          let label = Printf.sprintf "%s, %d shards" policy shards in
          check (Alcotest.list tenant_report_t) label seq sharded;
          check Alcotest.string (label ^ " (obs snapshot)")
            (Obs.Registry.snapshot_string reg_seq)
            (Obs.Registry.snapshot_string reg_sh))
        shard_counts)
    policies

let test_tenant_totals_shard_invariant () =
  let policy = "lru" in
  let seq =
    Engine.replay_tenants ~shards:1 ~make_sim:(make_sim ~policy) make_source
  in
  let t0 = Engine.tenant_totals seq in
  List.iter
    (fun shards ->
      let t =
        Engine.tenant_totals
          (Engine.replay_tenants ~shards ~make_sim:(make_sim ~policy)
             make_source)
      in
      check Alcotest.bool
        (Printf.sprintf "totals equal at %d shards" shards)
        true (t = t0))
    shard_counts

(* ------------------------------------------------------------------ *)
(* qcheck: isolation and conservation                                  *)
(* ------------------------------------------------------------------ *)

let tenant_of = function
  | Engine.Tarrive { tenant } | Engine.Taccess { tenant; _ }
  | Engine.Tdepart { tenant } ->
    tenant

let events_of_ops ops =
  List.map
    (fun (tenant, kind, page) ->
      match kind with
      | 0 -> Engine.Tarrive { tenant }
      | 1 -> Engine.Taccess { tenant; page }
      | _ -> Engine.Tdepart { tenant })
    ops

let ops_arb =
  QCheck.(list_of_size (Gen.int_range 0 200) (triple (int_bound 3) (int_bound 2) (int_bound 255)))

(* A tenant's reports from the interleaved stream equal its reports
   from replaying its own events alone: nothing any other tenant does
   is observable. *)
let prop_tenant_isolation =
  QCheck.Test.make ~count:50 ~name:"tenant isolation (interleaved = solo)"
    ops_arb (fun ops ->
      let events = events_of_ops ops in
      let arr = Array.of_list events in
      let full =
        Engine.replay_tenants ~shards:1 ~make_sim:(make_sim ~policy:"lru")
          (fun () -> source_of_events arr)
      in
      List.for_all
        (fun tenant ->
          let mine =
            Array.of_list (List.filter (fun e -> tenant_of e = tenant) events)
          in
          let solo =
            Engine.replay_tenants ~shards:1 ~make_sim:(make_sim ~policy:"lru")
              (fun () -> source_of_events mine)
          in
          List.filter (fun r -> r.Engine.tenant = tenant) full = solo)
        [ 0; 1; 2; 3 ])

(* Every access lands in exactly one tenant's report, under any shard
   count. *)
let prop_access_conservation =
  QCheck.Test.make ~count:50 ~name:"access conservation across shards" ops_arb
    (fun ops ->
      let events = events_of_ops ops in
      let arr = Array.of_list events in
      let issued =
        List.length
          (List.filter
             (function Engine.Taccess _ -> true | _ -> false)
             events)
      in
      List.for_all
        (fun shards ->
          let reports =
            Engine.replay_tenants ~shards ~make_sim:(make_sim ~policy:"fifo")
              (fun () -> source_of_events arr)
          in
          let t = Engine.tenant_totals reports in
          t.Engine.accesses = issued
          && t.Engine.accesses
             = List.fold_left
                 (fun acc r -> acc + r.Engine.report.Simulation.accesses)
                 0 reports)
        [ 1; 3; 8 ])

(* ------------------------------------------------------------------ *)
(* Contended machine: determinism, conservation, isolation             *)
(* ------------------------------------------------------------------ *)

let contended_cfg =
  {
    Contended.tlb_entries = 48;
    ram_frames = 512;
    asid_bits = 7;
    page_bits = 20;
  }

let test_contended_deterministic () =
  let run () = Contended.run contended_cfg Contended.Shared (make_source ()) in
  let a = run () and b = run () in
  check Alcotest.bool "identical reruns" true (a = b);
  check Alcotest.int "no asid leaks" 0 a.Contended.leaks;
  check Alcotest.bool "recycling exercised" true (a.Contended.rollovers > 0);
  check Alcotest.bool "peak bounded by cap" true
    (a.Contended.peak_active <= churn_cfg.Lifecycle.max_active)

let test_contended_conservation () =
  let r = Contended.run contended_cfg Contended.Shared (make_source ()) in
  let issued = ref 0 in
  let src = make_source () in
  let continue = ref true in
  while !continue do
    match src () with
    | None -> continue := false
    | Some (Engine.Taccess _) -> incr issued
    | Some _ -> ()
  done;
  let total =
    List.fold_left
      (fun acc (s : Contended.tenant_stats) -> acc + s.accesses)
      0 r.Contended.stats
  in
  check Alcotest.int "every access accounted" !issued total;
  List.iter
    (fun (s : Contended.tenant_stats) ->
      check Alcotest.bool "ios <= fills <= accesses" true
        (s.ios <= s.tlb_fills && s.tlb_fills <= s.accesses))
    r.Contended.stats

let test_reserved_isolation () =
  (* Reserved slices are private: a tenant's stats must equal a run
     where it is the only tenant in the fleet. *)
  let qos = Contended.Reserved { tlb_entries = 16; ram_frames = 64 } in
  let full = Contended.run contended_cfg qos (make_source ()) in
  let events =
    let src = make_source () in
    let out = ref [] in
    let continue = ref true in
    while !continue do
      match src () with
      | None -> continue := false
      | Some e -> out := e :: !out
    done;
    Array.of_list (List.rev !out)
  in
  List.iter
    (fun tenant ->
      let mine =
        Array.of_list
          (List.filter
             (fun e -> tenant_of e = tenant)
             (Array.to_list events))
      in
      let solo = Contended.run contended_cfg qos (source_of_events mine) in
      check Alcotest.bool
        (Printf.sprintf "tenant %d isolated" tenant)
        true
        (List.filter
           (fun (s : Contended.tenant_stats) -> s.tenant = tenant)
           full.Contended.stats
        = solo.Contended.stats))
    [ 0; 1; 5; 17 ]

(* ------------------------------------------------------------------ *)
(* Contended against a naive model                                     *)
(* ------------------------------------------------------------------ *)

(* An LRU set as a list, most recent first: an access moves [key] to
   the front and, on a miss, drops whatever falls past [cap]. *)
let model_touch cap key l =
  let hit = List.mem key l in
  let l = key :: List.filter (fun k -> k <> key) l in
  (hit, List.filteri (fun i _ -> i < cap) l)

type model_life = {
  m_tenant : int;
  m_arrival : int;
  mutable m_accesses : int;
  mutable m_fills : int;
  mutable m_ios : int;
  mutable m_tlb : int list;  (* Reserved only *)
  mutable m_ram : int list;  (* Reserved only *)
}

(* The same event stream, replayed by a model that shares no code with
   [Contended].  [Reserved]: a private TLB and RAM per lifetime, made
   at first sight and dropped at departure.  [Shared]: one TLB keyed
   by (arrival, page), which is what an ASID names while no id is
   recycled, and one RAM keyed by (tenant, page). *)
let model_run (cfg : Contended.config) qos events =
  let tlb = ref [] and ram = ref [] in
  let live = ref [] and out = ref [] and arrivals = ref 0 in
  let get tenant =
    match List.assoc_opt tenant !live with
    | Some l -> l
    | None ->
      let l =
        { m_tenant = tenant; m_arrival = !arrivals; m_accesses = 0;
          m_fills = 0; m_ios = 0; m_tlb = []; m_ram = [] }
      in
      incr arrivals;
      live := (tenant, l) :: !live;
      l
  in
  let access l page =
    l.m_accesses <- l.m_accesses + 1;
    let tlb_hit, ram_hit =
      match qos with
      | Contended.Shared ->
        let tlb_hit, t = model_touch cfg.tlb_entries (l.m_arrival, page) !tlb in
        tlb := t;
        if tlb_hit then (true, true)
        else begin
          let ram_hit, r = model_touch cfg.ram_frames (l.m_tenant, page) !ram in
          ram := r;
          (false, ram_hit)
        end
      | Contended.Reserved { tlb_entries; ram_frames } ->
        let tlb_hit, t = model_touch tlb_entries page l.m_tlb in
        l.m_tlb <- t;
        if tlb_hit then (true, true)
        else begin
          let ram_hit, r = model_touch ram_frames page l.m_ram in
          l.m_ram <- r;
          (false, ram_hit)
        end
    in
    if not tlb_hit then l.m_fills <- l.m_fills + 1;
    if not ram_hit then l.m_ios <- l.m_ios + 1
  in
  let finish l =
    out :=
      { Contended.tenant = l.m_tenant; accesses = l.m_accesses;
        tlb_fills = l.m_fills; ios = l.m_ios }
      :: !out
  in
  List.iter
    (function
      | Engine.Tarrive { tenant } -> ignore (get tenant)
      | Engine.Taccess { tenant; page } -> access (get tenant) page
      | Engine.Tdepart { tenant } -> (
        match List.assoc_opt tenant !live with
        | None -> ()
        | Some l ->
          finish l;
          live := List.remove_assoc tenant !live))
    events;
  List.iter (fun (_, l) -> finish l) !live;
  List.stable_sort
    (fun (a : Contended.tenant_stats) b -> Int.compare a.tenant b.tenant)
    (List.rev !out)

(* Streams of up to 300 events over 4 tenants and 12 pages, so
   departed ids come back and every cache both hits and evicts; 2^9
   ids outnumber any stream's arrivals, so no id is ever recycled. *)
let prop_contended_matches_model =
  let gen =
    QCheck.(
      triple
        (pair (int_bound 5) (int_bound 11))
        (pair (int_bound 3) (int_bound 7))
        (list_of_size (Gen.int_range 0 300)
           (triple (int_bound 3) (int_bound 7) (int_bound 11))))
  in
  QCheck.Test.make ~count:200 ~name:"Contended = association-list model" gen
    (fun ((tlb, ram), (r_tlb, r_ram), ops) ->
      (* Sizes count from 1; [int_bound] keeps shrinking in range. *)
      let cfg =
        { Contended.tlb_entries = tlb + 1; ram_frames = ram + 1;
          asid_bits = 9; page_bits = 8 }
      in
      let events =
        List.map
          (fun (tenant, kind, page) ->
            match kind with
            | 0 -> Engine.Tarrive { tenant }
            | 1 -> Engine.Tdepart { tenant }
            | _ -> Engine.Taccess { tenant; page })
          ops
      in
      List.for_all
        (fun qos ->
          let r = Contended.run cfg qos (source_of_events (Array.of_list events)) in
          if r.Contended.rollovers <> 0 || r.Contended.leaks <> 0 then
            QCheck.Test.fail_reportf "rollovers %d, leaks %d"
              r.Contended.rollovers r.Contended.leaks;
          r.Contended.stats = model_run cfg qos events)
        [ Contended.Shared;
          Contended.Reserved { tlb_entries = r_tlb + 1; ram_frames = r_ram + 1 } ])

(* ------------------------------------------------------------------ *)
(* Fairness summary                                                    *)
(* ------------------------------------------------------------------ *)

let test_fairness_exact () =
  let f = Fleet.of_costs [ 4.0; 1.0; 3.0; 2.0 ] in
  check Alcotest.int "tenants" 4 f.Fleet.tenants;
  check (Alcotest.float 1e-9) "mean" 2.5 f.Fleet.mean;
  check (Alcotest.float 1e-9) "p50" 2.0 f.Fleet.p50;
  check (Alcotest.float 1e-9) "p99" 4.0 f.Fleet.p99;
  check (Alcotest.float 1e-9) "max" 4.0 f.Fleet.max_cost;
  (* Jain: (Σx)²/(n·Σx²) = 100 / (4·30). *)
  check (Alcotest.float 1e-9) "jain" (100.0 /. 120.0) f.Fleet.jain;
  let empty = Fleet.of_costs [] in
  check Alcotest.int "empty tenants" 0 empty.Fleet.tenants;
  check (Alcotest.float 1e-9) "empty jain" 1.0 empty.Fleet.jain;
  let uniform = Fleet.of_costs [ 0.5; 0.5; 0.5 ] in
  check (Alcotest.float 1e-9) "uniform jain" 1.0 uniform.Fleet.jain

let test_fairness_observe_and_json () =
  let f = Fleet.of_costs [ 1.0; 2.0 ] in
  let reg = Obs.Registry.create () in
  Fleet.observe (Obs.Scope.v ~prefix:"fleet" reg) f;
  let snap = Obs.Registry.snapshot_string reg in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  check Alcotest.bool "gauges registered" true
    (contains snap "fleet.cost_p99");
  match Obs.Json.of_string (Obs.Json.to_string (Fleet.to_json f)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    check (Alcotest.option Alcotest.int) "tenants field" (Some 2)
      (Option.bind (Obs.Json.member "tenants" j) Obs.Json.as_int)

let golden_shared =
  "tenants=338 mean=0.940957 p50=0.952857 p99=1.010000 max=1.010000 jain=0.9937"

let golden_reserved =
  "tenants=338 mean=0.909143 p50=0.916512 p99=1.010000 max=1.010000 jain=0.9888"

(* Golden fairness report: the Shared-vs-Reserved QoS contrast on the
   fixture fleet, pinned noisy neighbors included, down to the last
   digit.  All arithmetic is integer counters plus deterministic float
   folds, so these strings are stable across runs and platforms; a
   change means the fleet model's behaviour changed. *)
let test_fairness_golden () =
  let render qos =
    let r = Contended.run contended_cfg qos (make_source ()) in
    Format.asprintf "%a"
      Fleet.pp
      (Fleet.of_stats ~epsilon:0.01 r.Contended.stats)
  in
  check Alcotest.string "shared fairness report" golden_shared
    (render Contended.Shared);
  check Alcotest.string "reserved fairness report" golden_reserved
    (render (Contended.Reserved { tlb_entries = 16; ram_frames = 64 }))

(* ------------------------------------------------------------------ *)
(* 100k-tenant churn: O(active) memory, zero leaks                     *)
(* ------------------------------------------------------------------ *)

let test_churn_100k_tenants () =
  let cfg =
    {
      Lifecycle.seed = 9001;
      ticks = 60_000;
      arrival_rate = 2.0;
      mean_lifetime = 20.0;
      accesses_per_tick = 4;
      max_active = 64;
      initial = 32;
      pinned = 1;
      pinned_weight = 4.0;
    }
  in
  let cheap_spec =
    Mix.spec ~name:"churn"
      [| (fun rng -> Simple.uniform ~virtual_pages:256 rng) |]
  in
  let machine =
    { contended_cfg with Contended.asid_bits = 8; tlb_entries = 64 }
  in
  let arrivals = ref 0 in
  let counting_source () =
    let src = Lifecycle.source cfg ~spec:cheap_spec in
    fun () ->
      match src () with
      | Some (Engine.Tarrive _) as e ->
        incr arrivals;
        e
      | e -> e
  in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let result = Contended.run machine Contended.Shared (counting_source ()) in
  let reported = List.length result.Contended.stats in
  Gc.compact ();
  let after = (Gc.stat ()).Gc.live_words in
  check Alcotest.bool "at least 100k tenants churned" true
    (!arrivals >= 100_000);
  check Alcotest.int "every tenant reported" !arrivals reported;
  check Alcotest.bool "peak active stays under the cap" true
    (result.Contended.peak_active <= cfg.Lifecycle.max_active);
  check Alcotest.int "no stale-translation leaks" 0 result.Contended.leaks;
  check Alcotest.bool "asid recycling rolled over" true
    (result.Contended.rollovers > 10);
  (* The final stats list is the only O(total-tenants) retention
     (~9 words per tenant); simulator state is O(active).  A leak of
     even ~50 words per departed tenant would add > 5M words and blow
     this bound. *)
  let retained = after - before in
  check Alcotest.bool
    (Printf.sprintf "O(active) memory (retained %d words for %d tenants)"
       retained reported)
    true
    (retained < (reported * 16) + 2_000_000)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fleet"
    [
      ( "differential",
        [
          Alcotest.test_case "sharded = sequential (reports + obs)" `Quick
            test_sharded_matches_sequential;
          Alcotest.test_case "totals shard-invariant" `Quick
            test_tenant_totals_shard_invariant;
        ] );
      ( "properties",
        qsuite [ prop_tenant_isolation; prop_access_conservation ] );
      ( "contended",
        [
          Alcotest.test_case "deterministic, leak-free" `Quick
            test_contended_deterministic;
          Alcotest.test_case "access conservation" `Quick
            test_contended_conservation;
          Alcotest.test_case "reserved isolation" `Quick test_reserved_isolation;
        ]
        @ qsuite [ prop_contended_matches_model ] );
      ( "fairness",
        [
          Alcotest.test_case "exact statistics" `Quick test_fairness_exact;
          Alcotest.test_case "observe + json" `Quick
            test_fairness_observe_and_json;
          Alcotest.test_case "golden QoS report" `Quick test_fairness_golden;
        ] );
      ( "churn",
        [
          Alcotest.test_case "100k tenants, O(active) memory" `Quick
            test_churn_100k_tenants;
        ] );
    ]
