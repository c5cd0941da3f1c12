open Atp_core
open Atp_paging
open Atp_util

let check = Alcotest.check

(* --- Params ---------------------------------------------------------- *)

let test_params_iceberg_defaults () =
  let p = Params.derive ~p:(1 lsl 20) ~w:64 () in
  check Alcotest.bool "k = 3 for iceberg[2]" true (p.Params.k = 3);
  check Alcotest.bool "tau below bucket size" true
    (p.Params.tau < p.Params.bucket_size);
  check Alcotest.bool "h_max positive" true (p.Params.h_max >= 1);
  check Alcotest.bool "delta small" true
    (p.Params.delta > 0.0 && p.Params.delta <= 0.5);
  check Alcotest.bool "encoding fits in w" true
    (p.Params.h_max * p.Params.bits_per_page <= 64);
  check Alcotest.bool "slots don't exceed P" true
    (p.Params.buckets * p.Params.bucket_size <= 1 lsl 20)

let test_params_one_choice () =
  let p = Params.derive ~scheme:Params.One_choice ~p:(1 lsl 20) ~w:64 () in
  check Alcotest.int "k = 1" 1 p.Params.k;
  check Alcotest.int "tau = B" p.Params.bucket_size p.Params.tau;
  let ice = Params.derive ~p:(1 lsl 20) ~w:64 () in
  (* The point of Iceberg: smaller buckets, hence more pages per TLB
     value. *)
  check Alcotest.bool "iceberg buckets smaller" true
    (ice.Params.bucket_size < p.Params.bucket_size);
  check Alcotest.bool "iceberg h_max at least as large" true
    (ice.Params.h_max >= p.Params.h_max)

let test_params_h_max_grows_with_w () =
  let at w = (Params.derive ~p:(1 lsl 18) ~w ()).Params.h_max in
  check Alcotest.bool "monotone in w" true (at 128 >= at 64 && at 64 >= at 16)

let test_params_rejects_tiny () =
  Alcotest.check_raises "w too small"
    (Invalid_argument "Params.derive: w too small to encode a single page pointer")
    (fun () -> ignore (Params.derive ~p:(1 lsl 20) ~w:2 ()))

let test_params_usable_pages () =
  let p = Params.derive ~p:10_000 ~w:64 () in
  let usable = Params.usable_pages p in
  check Alcotest.bool "within (0, P)" true (usable > 0 && usable < 10_000);
  check Alcotest.int "matches delta" usable
    (int_of_float (float_of_int 10_000 *. (1.0 -. p.Params.delta)))

(* --- Alloc ----------------------------------------------------------- *)

let small_params () = Params.derive ~p:4096 ~w:64 ()

let test_alloc_insert_delete () =
  let a = Alloc.create (small_params ()) in
  (match Alloc.insert a 42 with
   | Alloc.Placed { frame; _ } ->
     check Alcotest.(option int) "frame_of" (Some frame) (Alloc.frame_of a 42)
   | Alloc.Fallback _ -> Alcotest.fail "first insert must not fail");
  check Alcotest.int "live" 1 (Alloc.live a);
  Alloc.delete a 42;
  check Alcotest.int "live after delete" 0 (Alloc.live a);
  check Alcotest.(option int) "gone" None (Alloc.frame_of a 42)

let test_alloc_rejects_duplicates () =
  let a = Alloc.create (small_params ()) in
  ignore (Alloc.insert a 1);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Alloc.insert: page already resident") (fun () ->
      ignore (Alloc.insert a 1))

let test_alloc_phi_injective_and_stable () =
  let params = small_params () in
  let a = Alloc.create params in
  let budget = Params.usable_pages params in
  let frames = Hashtbl.create 64 in
  (* Fill to the policy budget; every frame must be distinct. *)
  for page = 0 to budget - 1 do
    ignore (Alloc.insert a page);
    let frame = Option.get (Alloc.frame_of a page) in
    check Alcotest.bool "injective" false (Hashtbl.mem frames frame);
    Hashtbl.replace frames frame page
  done;
  (* Stability: the frame of a resident page never changes, even under
     churn around it. *)
  let probe = 17 in
  let before = Alloc.frame_of a probe in
  for page = 0 to 99 do
    if page <> probe then begin
      Alloc.delete a page;
      ignore (Alloc.insert a (budget + page))
    end
  done;
  check Alcotest.(option int) "stable" before (Alloc.frame_of a probe)

let test_alloc_failure_at_saturation () =
  (* One-choice with a tiny space: overfilling one bucket must produce
     fallback placements, never crashes or lost pages. *)
  let params = Params.derive ~scheme:Params.One_choice ~p:256 ~w:64 () in
  let a = Alloc.create params in
  let total = Alloc.frames a in
  for page = 0 to total - 1 do
    ignore (Alloc.insert a page)
  done;
  check Alcotest.int "every frame used" 0 (Alloc.free a);
  check Alcotest.bool "fallbacks happened at full load" true
    (Alloc.failures_total a > 0);
  (* All resident pages still resolve to distinct frames. *)
  let seen = Hashtbl.create 64 in
  for page = 0 to total - 1 do
    let frame = Option.get (Alloc.frame_of a page) in
    check Alcotest.bool "distinct" false (Hashtbl.mem seen frame);
    Hashtbl.replace seen frame page
  done;
  Alcotest.check_raises "full" (Failure "Alloc: RAM completely full") (fun () ->
      ignore (Alloc.insert a 99_999))

let test_alloc_iceberg_no_failures_at_budget () =
  (* The Theorem 3 claim at simulation scale: within the (1-δ)P budget,
     Iceberg placements should not fail. *)
  let params = Params.derive ~p:(1 lsl 14) ~w:64 () in
  let a = Alloc.create params in
  let budget = Params.usable_pages params in
  for page = 0 to budget - 1 do
    ignore (Alloc.insert a page)
  done;
  check Alcotest.int "no failures" 0 (Alloc.failures_total a);
  check Alcotest.bool "max bucket load within B" true
    (Alloc.max_bucket_load a <= params.Params.bucket_size)

let prop_alloc_churn_consistency =
  QCheck.Test.make ~name:"alloc stays consistent under churn" ~count:30
    QCheck.(list (int_bound 600))
    (fun pages ->
      let params = Params.derive ~p:1024 ~w:64 () in
      let a = Alloc.create params in
      let budget = Params.usable_pages params in
      List.iter
        (fun page ->
          if Alloc.mem a page then Alloc.delete a page
          else if Alloc.live a < budget then ignore (Alloc.insert a page))
        pages;
      (* Frames of live pages are distinct and in range. *)
      let frames = Hashtbl.create 64 in
      let ok = ref true in
      for page = 0 to 600 do
        match Alloc.frame_of a page with
        | None -> ()
        | Some frame ->
          if frame < 0 || frame >= Alloc.frames a then ok := false;
          if Hashtbl.mem frames frame then ok := false;
          Hashtbl.replace frames frame page
      done;
      !ok && Hashtbl.length frames = Alloc.live a)

(* --- Alloc against a naive model of its placement rule --------------- *)

(* Alloc for [scheme], which fixes k, with the bucket count, bucket
   size and front-yard cap set by hand. *)
let alloc_at ?seed scheme ~buckets ~bucket_size ~tau =
  let base = Params.derive ~scheme ~p:(1 lsl 12) ~w:64 () in
  Alloc.create ?seed { base with Params.buckets; bucket_size; tau }

(* Section 4's rule, written out once more over plain arrays of
   per-bucket front, back and total counts: the front bucket h1 if its
   front count is below tau and it is not full; otherwise, of the back
   candidates h2 .. hk that are not full, the one with the least back
   count, the first on ties; otherwise a paging failure (None). *)
let model_choice a ~page ~k ~tau ~bucket_size ~front ~back ~total =
  let bin choice = Alloc.bin_of_choice a ~page ~choice in
  let open_bin choice = total.(bin choice) < bucket_size in
  if front.(bin 0) < tau && open_bin 0 then Some 0
  else
    List.fold_left
      (fun best choice ->
        match best with
        | _ when not (open_bin choice) -> best
        | Some b when back.(bin b) <= back.(bin choice) -> best
        | Some _ | None -> Some choice)
      None
      (List.init (k - 1) (fun i -> i + 1))

(* Random insert/delete streams (a page is deleted when resident and
   inserted otherwise) on at most 6 buckets of at most 4 slots, with
   32 pages: full buckets, ties and failures all occur.  Each insert's
   choice, as [location_of] reports it, must be the model's.  A
   fallback counts as back-yard load in the bucket it lands in, as
   Alloc counts it. *)
let prop_alloc_matches_model ~name scheme ~tau_of =
  QCheck.Test.make ~name ~count:300
    QCheck.(
      quad small_nat (Sizes.range 1 6) (Sizes.range 1 4) (list (int_bound 31)))
    (fun (seed, buckets, bucket_size, pages) ->
      let tau = tau_of bucket_size in
      let a = alloc_at ~seed scheme ~buckets ~bucket_size ~tau in
      let k = (Alloc.params a).Params.k in
      let front = Array.make buckets 0
      and back = Array.make buckets 0
      and total = Array.make buckets 0 in
      (* page -> (bucket, placed in the front yard) *)
      let homes = ref [] in
      let count (bin, in_front) delta =
        total.(bin) <- total.(bin) + delta;
        if in_front then front.(bin) <- front.(bin) + delta
        else back.(bin) <- back.(bin) + delta
      in
      List.for_all
        (fun page ->
          match List.assoc_opt page !homes with
          | Some home ->
            Alloc.delete a page;
            homes := List.remove_assoc page !homes;
            count home (-1);
            true
          | None when List.length !homes = buckets * bucket_size -> true
          | None -> (
            let expected =
              model_choice a ~page ~k ~tau ~bucket_size ~front ~back ~total
            in
            ignore (Alloc.insert a page);
            let home =
              match (expected, Alloc.location_of a page) with
              | Some c, Some (Alloc.Placed { choice; _ }) when choice = c ->
                Some (Alloc.bin_of_choice a ~page ~choice, choice = 0)
              | None, Some (Alloc.Fallback { frame }) ->
                let bin = frame / bucket_size in
                if total.(bin) < bucket_size then Some (bin, false) else None
              | _ -> None
            in
            match home with
            | Some home ->
              homes := (page, home) :: !homes;
              count home 1;
              true
            | None -> false))
        pages)

let alloc_model_props =
  [
    prop_alloc_matches_model ~name:"placement = naive model, one-choice"
      Params.One_choice ~tau_of:Fun.id;
    prop_alloc_matches_model ~name:"placement = naive model, greedy[2]"
      (Params.Iceberg { d = 2 }) ~tau_of:(fun _ -> 0);
    prop_alloc_matches_model ~name:"placement = naive model, iceberg[2]"
      (Params.Iceberg { d = 2 }) ~tau_of:(fun b -> (b + 1) / 2);
  ]

let test_alloc_iceberg_beats_one_choice () =
  (* Theorem 2 against Theorem 1 at a static fill of lambda = 8 pages
     per bucket, in buckets too large to fill: Iceberg[2]'s fullest
     bucket is no fuller than one-choice's. *)
  let buckets = 256 and bucket_size = 64 and lambda = 8 in
  let max_load scheme ~tau =
    let a = alloc_at scheme ~buckets ~bucket_size ~tau in
    for page = 0 to (lambda * buckets) - 1 do
      ignore (Alloc.insert a page)
    done;
    check Alcotest.int "no failures" 0 (Alloc.failures_total a);
    Alloc.max_bucket_load a
  in
  let one = max_load Params.One_choice ~tau:bucket_size in
  let ice =
    max_load (Params.Iceberg { d = 2 })
      ~tau:(int_of_float (ceil (1.05 *. float_of_int lambda)))
  in
  check Alcotest.bool
    (Printf.sprintf "iceberg[2] (%d) <= one-choice (%d)" ice one)
    true (ice <= one)

(* --- Encoding: the Eq. (4) guarantee --------------------------------- *)

let test_encoding_roundtrip_small () =
  let params = small_params () in
  let a = Alloc.create params in
  let e = Encoding.create a in
  let h_max = Encoding.h_max e in
  let value = Encoding.empty_value e in
  (* Insert the pages of huge page 3 and encode them one by one. *)
  let base = 3 * h_max in
  for i = 0 to h_max - 1 do
    ignore (Alloc.insert a (base + i));
    Encoding.refresh_page e value (base + i)
  done;
  for i = 0 to h_max - 1 do
    let v = base + i in
    check Alcotest.int "decode = phi" (Option.get (Alloc.frame_of a v))
      (Encoding.decode e v value)
  done;
  (* Remove one: its field must decode to -1, the rest unchanged. *)
  Alloc.delete a base;
  Encoding.clear_page e value base;
  check Alcotest.int "absent decodes to -1" (-1) (Encoding.decode e base value);
  for i = 1 to h_max - 1 do
    let v = base + i in
    check Alcotest.int "others unchanged" (Option.get (Alloc.frame_of a v))
      (Encoding.decode e v value)
  done

let test_encoding_fits_w () =
  let params = Params.derive ~p:(1 lsl 16) ~w:48 () in
  let a = Alloc.create params in
  let e = Encoding.create a in
  check Alcotest.bool "bits within w" true (Encoding.bits_used e <= 48)

let test_encoding_empty_value_all_null () =
  let params = small_params () in
  let e = Encoding.create (Alloc.create params) in
  let value = Encoding.empty_value e in
  check Alcotest.bool "is_empty" true (Encoding.is_empty e value);
  for i = 0 to Encoding.h_max e - 1 do
    check Alcotest.int "decodes null" (-1) (Encoding.decode e i value)
  done

let prop_encoding_eq4 =
  (* Equation (4): for random residency patterns within one huge page,
     f(v, psi(u)) = phi(v) for active v and -1 otherwise. *)
  QCheck.Test.make ~name:"Eq. (4): decode matches phi exactly" ~count:50
    QCheck.(pair (int_bound 100) (list (pair (int_bound 30) bool)))
    (fun (u, flips) ->
      let params = Params.derive ~p:2048 ~w:64 () in
      let a = Alloc.create params in
      let e = Encoding.create a in
      let h_max = Encoding.h_max e in
      let value = Encoding.empty_value e in
      let base = u * h_max in
      List.iter
        (fun (i, insert) ->
          let v = base + (i mod h_max) in
          if insert && not (Alloc.mem a v) then begin
            ignore (Alloc.insert a v);
            Encoding.refresh_page e value v
          end
          else if (not insert) && Alloc.mem a v then begin
            Alloc.delete a v;
            Encoding.clear_page e value v
          end)
        flips;
      let ok = ref true in
      for i = 0 to h_max - 1 do
        let v = base + i in
        let decoded = Encoding.decode e v value in
        (match Alloc.location_of a v with
         | Some (Alloc.Placed { frame; _ }) -> if decoded <> frame then ok := false
         | Some (Alloc.Fallback _) -> if decoded <> -1 then ok := false
         | None -> if decoded <> -1 then ok := false)
      done;
      !ok)

(* --- Decoupled -------------------------------------------------------- *)

let test_decoupled_translation_flow () =
  let params = Params.derive ~p:4096 ~w:64 () in
  let d = Decoupled.create params in
  let h_max = Decoupled.h_max d in
  let v = (5 * h_max) + 1 in
  let u = v / h_max in
  check Alcotest.bool "not covered yet" true (Decoupled.translate d v = Decoupled.Not_covered);
  Decoupled.tlb_add d u;
  check Alcotest.bool "covered but absent -> fault" true
    (Decoupled.translate d v = Decoupled.Decode_fault);
  Decoupled.ram_insert d v;
  (match Alloc.location_of (Decoupled.alloc d) v with
   | Some (Alloc.Placed { frame; _ }) ->
     check Alcotest.bool "frame translation" true
       (Decoupled.translate d v = Decoupled.Frame frame)
   | Some (Alloc.Fallback _) | None -> Alcotest.fail "unexpected failure");
  Decoupled.ram_evict d v;
  check Alcotest.bool "fault after eviction" true
    (Decoupled.translate d v = Decoupled.Decode_fault);
  Decoupled.tlb_remove d u;
  check Alcotest.bool "uncovered after removal" true
    (Decoupled.translate d v = Decoupled.Not_covered)

let test_decoupled_psi_updates_in_tlb () =
  (* A page becoming resident while its huge page is already in the
     TLB must be visible without re-inserting the TLB entry. *)
  let params = Params.derive ~p:4096 ~w:64 () in
  let d = Decoupled.create params in
  let h_max = Decoupled.h_max d in
  let v1 = 7 * h_max and v2 = (7 * h_max) + 1 in
  ignore (Decoupled.ram_insert d v1);
  Decoupled.tlb_add d (v1 / h_max);
  (match Decoupled.translate d v1 with
   | Decoupled.Frame _ -> ()
   | _ -> Alcotest.fail "v1 should translate");
  ignore (Decoupled.ram_insert d v2);
  (match Decoupled.translate d v2 with
   | Decoupled.Frame _ -> ()
   | _ -> Alcotest.fail "psi update must reach the loaded TLB entry")

let test_decoupled_tlb_size () =
  let params = Params.derive ~p:4096 ~w:64 () in
  let d = Decoupled.create params in
  Decoupled.tlb_add d 1;
  Decoupled.tlb_add d 2;
  Decoupled.tlb_add d 1;
  check Alcotest.int "idempotent add" 2 (Decoupled.tlb_size d);
  Decoupled.tlb_remove d 1;
  Decoupled.tlb_remove d 1;
  check Alcotest.int "idempotent remove" 1 (Decoupled.tlb_size d)

let prop_decoupled_matches_alloc =
  QCheck.Test.make ~name:"decoupled translation = allocator truth" ~count:30
    QCheck.(list (int_bound 400))
    (fun pages ->
      let params = Params.derive ~p:2048 ~w:64 () in
      let d = Decoupled.create params in
      let a = Decoupled.alloc d in
      let h_max = Decoupled.h_max d in
      let budget = Params.usable_pages params in
      List.iter
        (fun v ->
          Decoupled.tlb_add d (v / h_max);
          if Alloc.mem a v then Decoupled.ram_evict d v
          else if Decoupled.active d < budget then ignore (Decoupled.ram_insert d v))
        pages;
      List.for_all
        (fun v ->
          match (Decoupled.translate d v, Alloc.location_of a v) with
          | Decoupled.Frame f, Some (Alloc.Placed { frame; _ }) -> f = frame
          | Decoupled.Decode_fault, Some (Alloc.Fallback _) -> true
          | Decoupled.Decode_fault, None -> true
          | Decoupled.Not_covered, _ -> not (Decoupled.tlb_mem d (v / h_max))
          | _ -> false)
        (List.sort_uniq compare pages))

(* --- Simulation (Theorem 4) ------------------------------------------ *)

let test_simulation_mirrors_x_and_y () =
  (* tlb_fills must equal X's misses on r(sigma) and ios must equal
     Y's misses on sigma, computed independently. *)
  let params = Params.derive ~p:4096 ~w:64 () in
  let h_max = params.Params.h_max in
  let budget = Params.usable_pages params in
  let rng = Prng.create ~seed:1 () in
  let trace = Array.init 5_000 (fun _ -> Prng.int rng 2_000) in
  let x = Policy.instantiate (module Lru) ~capacity:64 () in
  let y = Policy.instantiate (module Lru) ~capacity:budget () in
  let z = Simulation.create ~params ~x ~y () in
  Array.iter (Simulation.access z) trace;
  let r = Simulation.report z in
  let x_ref = Policy.instantiate (module Lru) ~capacity:64 () in
  let x_stats = Sim.run x_ref (Simulation.huge_trace ~h_max trace) in
  let y_ref = Policy.instantiate (module Lru) ~capacity:budget () in
  let y_stats = Sim.run y_ref trace in
  check Alcotest.int "tlb_fills = X misses" x_stats.Sim.misses r.Simulation.tlb_fills;
  check Alcotest.int "ios = Y misses" y_stats.Sim.misses r.Simulation.ios;
  check Alcotest.int "accesses" 5_000 r.Simulation.accesses

let test_simulation_cost_identity () =
  let r =
    {
      Simulation.accesses = 10;
      ios = 4;
      tlb_fills = 3;
      decoding_misses = 2;
      failures_total = 1;
      max_bucket_load = 5;
    }
  in
  let epsilon = 0.25 in
  check (Alcotest.float 1e-9) "C = C_IO + eps*(fills+decode)"
    (4.0 +. (0.25 *. 5.0))
    (Simulation.cost ~epsilon r);
  check (Alcotest.float 1e-9) "C_TLB" 0.75 (Simulation.c_tlb ~epsilon r);
  check (Alcotest.float 1e-9) "C_IO" 4.0 (Simulation.c_io r)

let test_simulation_rejects_oversized_y () =
  let params = Params.derive ~p:4096 ~w:64 () in
  let x = Policy.instantiate (module Lru) ~capacity:8 () in
  let y = Policy.instantiate (module Lru) ~capacity:4096 () in
  check Alcotest.bool "raises" true
    (try
       ignore (Simulation.create ~params ~x ~y ());
       false
     with Invalid_argument _ -> true)

let test_simulation_decoding_misses_rare () =
  (* Under the budget, iceberg placement should almost never fail, so
     decoding misses should be (near) zero: the n/poly(P) term. *)
  let params = Params.derive ~p:(1 lsl 14) ~w:64 () in
  let budget = Params.usable_pages params in
  let rng = Prng.create ~seed:2 () in
  let trace = Array.init 30_000 (fun _ -> Prng.int rng (1 lsl 15)) in
  let x = Policy.instantiate (module Lru) ~capacity:256 () in
  let y = Policy.instantiate (module Lru) ~capacity:budget () in
  let z = Simulation.create ~params ~x ~y () in
  Array.iter (Simulation.access z) trace;
  let r = Simulation.report z in
  check Alcotest.bool
    (Printf.sprintf "decoding misses tiny (%d of %d)" r.Simulation.decoding_misses
       r.Simulation.accesses)
    true
    (float_of_int r.Simulation.decoding_misses
     < 0.001 *. float_of_int r.Simulation.accesses)

let test_simulation_with_opt_y () =
  (* Theorem 4 allows offline Y; cross-check the IO count against a
     standalone OPT run. *)
  let params = Params.derive ~p:4096 ~w:64 () in
  let budget = min 64 (Params.usable_pages params) in
  let rng = Prng.create ~seed:3 () in
  let trace = Array.init 2_000 (fun _ -> Prng.int rng 256) in
  let x = Policy.instantiate (module Lru) ~capacity:32 () in
  let y = Atp_paging.Opt.instance ~capacity:budget trace in
  let z = Simulation.create ~params ~x ~y () in
  Array.iter (Simulation.access z) trace;
  let r = Simulation.report z in
  check Alcotest.int "ios = OPT misses"
    (Atp_paging.Opt.misses ~capacity:budget trace)
    r.Simulation.ios

let test_simulation_warmup_reset () =
  let params = Params.derive ~p:4096 ~w:64 () in
  let x = Policy.instantiate (module Lru) ~capacity:16 () in
  let y = Policy.instantiate (module Lru) ~capacity:512 () in
  let z = Simulation.create ~params ~x ~y () in
  let warmup = Array.init 100 (fun i -> i) in
  let measured = Array.init 50 (fun i -> i) in
  let r = Simulation.run ~warmup z measured in
  check Alcotest.int "only measured accesses" 50 r.Simulation.accesses;
  check Alcotest.int "no IOs for resident pages" 0 r.Simulation.ios

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "atp.core"
    [
      ( "params",
        [
          Alcotest.test_case "iceberg defaults" `Quick test_params_iceberg_defaults;
          Alcotest.test_case "one-choice" `Quick test_params_one_choice;
          Alcotest.test_case "h_max monotone in w" `Quick test_params_h_max_grows_with_w;
          Alcotest.test_case "rejects tiny w" `Quick test_params_rejects_tiny;
          Alcotest.test_case "usable pages" `Quick test_params_usable_pages;
        ] );
      ( "alloc",
        Alcotest.test_case "insert/delete" `Quick test_alloc_insert_delete
        :: Alcotest.test_case "duplicates" `Quick test_alloc_rejects_duplicates
        :: Alcotest.test_case "phi injective+stable" `Quick test_alloc_phi_injective_and_stable
        :: Alcotest.test_case "saturation" `Quick test_alloc_failure_at_saturation
        :: Alcotest.test_case "iceberg within budget" `Quick test_alloc_iceberg_no_failures_at_budget
        :: Alcotest.test_case "iceberg[2] no fuller than one-choice" `Quick
             test_alloc_iceberg_beats_one_choice
        :: qsuite (prop_alloc_churn_consistency :: alloc_model_props) );
      ( "encoding",
        Alcotest.test_case "roundtrip" `Quick test_encoding_roundtrip_small
        :: Alcotest.test_case "fits w" `Quick test_encoding_fits_w
        :: Alcotest.test_case "empty value" `Quick test_encoding_empty_value_all_null
        :: qsuite [ prop_encoding_eq4 ] );
      ( "decoupled",
        Alcotest.test_case "translation flow" `Quick test_decoupled_translation_flow
        :: Alcotest.test_case "psi updates reach TLB" `Quick test_decoupled_psi_updates_in_tlb
        :: Alcotest.test_case "tlb size" `Quick test_decoupled_tlb_size
        :: qsuite [ prop_decoupled_matches_alloc ] );
      ( "simulation",
        [
          Alcotest.test_case "mirrors X and Y" `Quick test_simulation_mirrors_x_and_y;
          Alcotest.test_case "cost identity" `Quick test_simulation_cost_identity;
          Alcotest.test_case "rejects oversized Y" `Quick test_simulation_rejects_oversized_y;
          Alcotest.test_case "decoding misses rare" `Quick test_simulation_decoding_misses_rare;
          Alcotest.test_case "OPT as Y" `Quick test_simulation_with_opt_y;
          Alcotest.test_case "warmup reset" `Quick test_simulation_warmup_reset;
        ] );
    ]
