(* Tests for the MMU substrate: the radix page table, the page-table
   walker with its page-walk cache, and nested (two-dimensional)
   translation. *)

open Atp_memsim

let check = Alcotest.check

(* --- Page_table ------------------------------------------------------ *)

let test_pt_map_lookup () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:42 ~frame:7 ();
  (match Page_table.lookup pt 42 with
   | Some m ->
     check Alcotest.int "frame" 7 m.Page_table.frame;
     check Alcotest.int "level" 0 m.Page_table.level;
     check Alcotest.bool "writable default" true m.Page_table.flags.Page_table.writable
   | None -> Alcotest.fail "expected mapping");
  check Alcotest.bool "absent page" true (Page_table.lookup pt 43 = None)

let test_pt_unmap () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:100 ~frame:1 ();
  check Alcotest.bool "unmap present" true (Page_table.unmap pt ~vpage:100);
  check Alcotest.bool "unmap absent" false (Page_table.unmap pt ~vpage:100);
  check Alcotest.int "no leaves" 0 (Page_table.mapped_count pt);
  (* Interior nodes are reclaimed. *)
  check Alcotest.int "only the root remains" 1 (Page_table.node_count pt)

let test_pt_duplicate_rejected () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:5 ~frame:1 ();
  Alcotest.check_raises "remap" (Invalid_argument "Page_table.map: range already mapped")
    (fun () -> Page_table.map pt ~vpage:5 ~frame:2 ())

let test_pt_huge_leaf () =
  let pt = Page_table.create () in
  (* A level-1 leaf covers 512 pages; map at vpage 512 (aligned). *)
  Page_table.map pt ~vpage:512 ~frame:1024 ~level:1 ();
  (match Page_table.lookup pt 600 with
   | Some m ->
     check Alcotest.int "covered by huge leaf" 1024 m.Page_table.frame;
     check Alcotest.int "level 1" 1 m.Page_table.level
   | None -> Alcotest.fail "huge leaf must cover");
  (* Walk terminates earlier for the huge leaf than for a base page. *)
  Page_table.map pt ~vpage:5 ~frame:1 ();
  let _, huge_visits = Page_table.walk pt 600 in
  let _, base_visits = Page_table.walk pt 5 in
  check Alcotest.int "huge walk is one level shorter" (base_visits - 1)
    huge_visits;
  check Alcotest.int "base walk visits all levels" Page_table.levels base_visits

let test_pt_huge_alignment () =
  let pt = Page_table.create () in
  Alcotest.check_raises "misaligned vpage"
    (Invalid_argument "Page_table.map: virtual page not aligned to its level")
    (fun () -> Page_table.map pt ~vpage:100 ~frame:0 ~level:1 ());
  Alcotest.check_raises "misaligned frame"
    (Invalid_argument "Page_table.map: frame not aligned to its level")
    (fun () -> Page_table.map pt ~vpage:512 ~frame:100 ~level:1 ())

let test_pt_overlap_rejected () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:512 ~frame:0 ~level:1 ();
  Alcotest.check_raises "base under huge"
    (Invalid_argument "Page_table.map: range covered by a larger mapping")
    (fun () -> Page_table.map pt ~vpage:513 ~frame:9 ());
  let pt2 = Page_table.create () in
  Page_table.map pt2 ~vpage:513 ~frame:9 ();
  Alcotest.check_raises "huge over base"
    (Invalid_argument "Page_table.map: range contains finer-grained mappings")
    (fun () -> Page_table.map pt2 ~vpage:512 ~frame:0 ~level:1 ())

let test_pt_accessed_dirty () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:9 ~frame:3 ();
  let m = Option.get (Page_table.lookup pt 9) in
  check Alcotest.bool "not accessed yet" false m.Page_table.flags.Page_table.accessed;
  ignore (Page_table.walk pt 9);
  let m = Option.get (Page_table.lookup pt 9) in
  check Alcotest.bool "accessed after walk" true m.Page_table.flags.Page_table.accessed;
  check Alcotest.bool "set dirty" true (Page_table.set_dirty pt 9);
  let m = Option.get (Page_table.lookup pt 9) in
  check Alcotest.bool "dirty" true m.Page_table.flags.Page_table.dirty;
  check Alcotest.bool "dirty on absent" false (Page_table.set_dirty pt 10)

let test_pt_clear_accessed_preserves_dirty () =
  (* Regression: CLOCK's rotation must clear only the accessed bit; a
     version that round-tripped through set_dirty re-set accessed and
     made dirty pages rotate forever. *)
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:4 ~frame:1 ();
  ignore (Page_table.walk pt 4);
  ignore (Page_table.set_dirty pt 4);
  check Alcotest.bool "clear works" true (Page_table.clear_accessed pt 4);
  let m = Option.get (Page_table.lookup pt 4) in
  check Alcotest.bool "accessed cleared" false m.Page_table.flags.Page_table.accessed;
  check Alcotest.bool "dirty preserved" true m.Page_table.flags.Page_table.dirty;
  check Alcotest.bool "absent page" false (Page_table.clear_accessed pt 5)

let test_pt_iter_order () =
  let pt = Page_table.create () in
  List.iter
    (fun (v, f) -> Page_table.map pt ~vpage:v ~frame:f ())
    [ (1000, 1); (3, 2); (70_000, 3) ];
  let seen = ref [] in
  Page_table.iter (fun ~vpage _ -> seen := vpage :: !seen) pt;
  check Alcotest.(list int) "increasing order" [ 3; 1000; 70_000 ]
    (List.rev !seen)

let prop_pt_matches_model =
  QCheck.Test.make ~name:"page table matches Hashtbl model" ~count:100
    QCheck.(list (pair (int_bound 5000) bool))
    (fun ops ->
      let pt = Page_table.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (v, do_map) ->
          if do_map then begin
            if not (Hashtbl.mem model v) then begin
              Page_table.map pt ~vpage:v ~frame:(v * 2) ();
              Hashtbl.replace model v (v * 2)
            end
          end
          else begin
            let removed = Page_table.unmap pt ~vpage:v in
            if removed <> Hashtbl.mem model v then failwith "unmap mismatch";
            Hashtbl.remove model v
          end)
        ops;
      Hashtbl.fold
        (fun v f acc ->
          acc
          && match Page_table.lookup pt v with
             | Some m -> m.Page_table.frame = f
             | None -> false)
        model true
      && Page_table.mapped_count pt = Hashtbl.length model)

(* --- Walker ----------------------------------------------------------- *)

let test_walker_cost_structure () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:0 ~frame:0 ();
  let w = Walker.create pt in
  let r1 = Walker.translate w 0 in
  (* Cold: all four levels fetched. *)
  check Alcotest.int "cold walk = 4 accesses" 4 r1.Walker.memory_accesses;
  (* Warm: the PWC caches the interior path; only the PTE remains. *)
  let r2 = Walker.translate w 0 in
  check Alcotest.int "warm walk = 1 access" 1 r2.Walker.memory_accesses;
  check Alcotest.bool "warm cheaper" true (r2.Walker.cycles < r1.Walker.cycles)

let test_walker_huge_leaf_cheaper () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:0 ~frame:0 ();
  Page_table.map pt ~vpage:(512 * 512) ~frame:512 ~level:1 ();
  let w = Walker.create pt in
  let base = Walker.translate w 0 in
  let huge = Walker.translate w (512 * 512) in
  check Alcotest.bool "huge cold walk shorter" true
    (huge.Walker.memory_accesses < base.Walker.memory_accesses)

let test_walker_locality_via_pwc () =
  let pt = Page_table.create () in
  for v = 0 to 63 do
    Page_table.map pt ~vpage:v ~frame:v ()
  done;
  let w = Walker.create pt in
  ignore (Walker.translate w 0);
  (* Neighbors share the whole interior path. *)
  let r = Walker.translate w 1 in
  check Alcotest.int "neighbor pays one access" 1 r.Walker.memory_accesses;
  let s = Walker.stats w in
  check Alcotest.int "two walks" 2 s.Walker.walks;
  check Alcotest.int "one PWC-assisted" 1 s.Walker.pwc_hits

let test_walker_invalidate () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:0 ~frame:0 ();
  let w = Walker.create pt in
  ignore (Walker.translate w 0);
  Walker.invalidate w;
  let r = Walker.translate w 0 in
  check Alcotest.int "flush restores cold cost" 4 r.Walker.memory_accesses

let test_walker_epsilon () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:0 ~frame:0 ();
  let w = Walker.create pt in
  ignore (Walker.translate w 0);
  (* One walk of 4 accesses x 100 cycles (+ probe costs) over a
     40,000-cycle IO: epsilon is about 0.01. *)
  let e = Walker.epsilon w ~io_latency_cycles:40_000 in
  check Alcotest.bool "epsilon near 0.01" true (e > 0.009 && e < 0.012)

(* A recovered miss is priced as one cache probe against a 4-level
   walk at 100 cycles a level, and never above a full miss. *)
let test_walker_tcache_epsilon () =
  check (Alcotest.float 0.) "30 of 400 cycles" (0.01 *. 30. /. 400.)
    (Walker.tcache_epsilon ~epsilon:0.01 ~tcache_latency:30);
  check (Alcotest.float 0.) "capped at epsilon" 0.01
    (Walker.tcache_epsilon ~epsilon:0.01 ~tcache_latency:1000)

let test_walker_unmapped () =
  let pt = Page_table.create () in
  let w = Walker.create pt in
  let r = Walker.translate w 12345 in
  check Alcotest.bool "no mapping" true (r.Walker.mapping = None);
  check Alcotest.bool "fault walk still costs" true (r.Walker.memory_accesses >= 1)

(* --- Walker: INVLPG-style per-page invalidation ----------------------- *)

(* Pages 0 and (1 lsl 27) share no interior prefix at any level, so
   invalidating one must leave the other's whole walk-cache path
   intact — the regression the full-flush bug destroyed. *)
let test_walker_invalidate_page_precision () =
  let pt = Page_table.create () in
  let far = 1 lsl 27 in
  Page_table.map pt ~vpage:0 ~frame:0 ();
  Page_table.map pt ~vpage:far ~frame:1 ();
  let w = Walker.create pt in
  ignore (Walker.translate w 0);
  ignore (Walker.translate w far);
  Walker.invalidate_page w 0;
  let r_far = Walker.translate w far in
  check Alcotest.int "unrelated page stays warm" 1
    r_far.Walker.memory_accesses;
  let r0 = Walker.translate w 0 in
  check Alcotest.int "invalidated page is cold" 4 r0.Walker.memory_accesses

let test_walker_invalidate_page_shared_prefix () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:0 ~frame:0 ();
  Page_table.map pt ~vpage:512 ~frame:1 ();
  let w = Walker.create pt in
  ignore (Walker.translate w 0);
  ignore (Walker.translate w 512);
  (* Pages 0 and 512 share levels 1-2 but split at the last interior
     level; invalidating page 0 takes the shared prefixes with it
     (INVLPG semantics are conservative) but page 512 keeps its own
     deepest entry, so it still walks with one access. *)
  Walker.invalidate_page w 0;
  let r = Walker.translate w 512 in
  check Alcotest.int "sibling keeps its deepest prefix" 1
    r.Walker.memory_accesses

(* Per-entry invalidation against a flush-and-rebuild reference: a
   model PWC as a set of (skip, prefix) keys, with capacity high
   enough that the real PWC never evicts, must predict every walk's
   memory-access count across random walk/invalidate/flush sequences. *)
let prop_walker_invalidate_matches_model =
  QCheck.Test.make ~count:80
    ~name:"Walker.invalidate_page matches flush-and-rebuild model"
    QCheck.(list (pair (int_bound 9) (int_bound 4095)))
    (fun ops ->
      let pt = Page_table.create () in
      for v = 0 to 4095 do
        Page_table.map pt ~vpage:v ~frame:v ()
      done;
      let w =
        Walker.create
          ~config:{ Walker.default_config with pwc_entries = 65536 }
          pt
      in
      let model = Hashtbl.create 256 in
      let key ~skip v = (skip, v lsr ((Page_table.levels - skip) * 9)) in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 | 1 | 2 | 3 | 4 | 5 ->
            (* Walk: the model predicts accesses from its deepest
               matching prefix, then learns the path. *)
            let _, visits = Page_table.walk pt v in
            let max_skip = min (Page_table.levels - 1) (visits - 1) in
            let skip = ref 0 in
            for g = max_skip downto 1 do
              if !skip = 0 && Hashtbl.mem model (key ~skip:g v) then skip := g
            done;
            let predicted = max 1 (visits - !skip) in
            let r = Walker.translate w v in
            if r.Walker.memory_accesses <> predicted then
              QCheck.Test.fail_reportf
                "walk %d: predicted %d accesses, walker did %d" v predicted
                r.Walker.memory_accesses;
            for g = 1 to max_skip do
              Hashtbl.replace model (key ~skip:g v) ()
            done
          | 6 | 7 | 8 ->
            Walker.invalidate_page w v;
            for g = 1 to Page_table.levels - 1 do
              Hashtbl.remove model (key ~skip:g v)
            done
          | _ ->
            Walker.invalidate w;
            Hashtbl.reset model)
        ops;
      true)

(* --- Walker: cache-resident translation tier -------------------------- *)

let tiered_config ?(mode = Walker.Inclusive) ?(entries = 16) () =
  { Walker.default_config with
    tcache_entries = entries;
    tcache_latency = 30;
    tcache_mode = mode }

let test_walker_tcache_inclusive_hit () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:0 ~frame:0 ();
  let w = Walker.create ~config:(tiered_config ()) pt in
  let cold = Walker.translate w 0 in
  (* The probe is charged even on the cold miss. *)
  check Alcotest.int "cold walk still 4 accesses" 4 cold.Walker.memory_accesses;
  check Alcotest.bool "miss pays the probe" true
    (cold.Walker.cycles > 4 * 100);
  let hit = Walker.translate w 0 in
  check Alcotest.int "tier hit: no page-table access" 0
    hit.Walker.memory_accesses;
  check Alcotest.int "tier hit costs its latency" 30 hit.Walker.cycles;
  let s = Walker.stats w in
  check Alcotest.int "one tcache hit" 1 s.Walker.tcache_hits;
  check Alcotest.bool "hit strictly cheaper than any walk" true
    (hit.Walker.cycles < 100)

let test_walker_tcache_exclusive_deposit () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:0 ~frame:0 ();
  let w = Walker.create ~config:(tiered_config ~mode:Walker.Exclusive ()) pt in
  ignore (Walker.translate w 0);
  (* Exclusive: walks do not fill the tier. *)
  let again = Walker.translate w 0 in
  check Alcotest.bool "no hit before deposit" true
    (again.Walker.memory_accesses > 0);
  Walker.deposit w 0;
  let hit = Walker.translate w 0 in
  check Alcotest.int "deposited entry hits" 0 hit.Walker.memory_accesses;
  (* A victim store surrenders the entry on hit. *)
  let after = Walker.translate w 0 in
  check Alcotest.bool "entry migrated out" true
    (after.Walker.memory_accesses > 0);
  check Alcotest.int "exactly one tier hit" 1 (Walker.stats w).Walker.tcache_hits

let test_walker_tcache_never_serves_unmapped () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:7 ~frame:3 ();
  let w = Walker.create ~config:(tiered_config ()) pt in
  ignore (Walker.translate w 7);
  ignore (Page_table.unmap pt ~vpage:7);
  (* The stale tier entry must not shortcut the fault. *)
  let r = Walker.translate w 7 in
  check Alcotest.bool "fault reported" true (r.Walker.mapping = None);
  check Alcotest.int "no phantom tcache hit" 0
    (Walker.stats w).Walker.tcache_hits

let test_walker_tcache_invalidate_page () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:0 ~frame:0 ();
  let w = Walker.create ~config:(tiered_config ()) pt in
  ignore (Walker.translate w 0);
  Walker.invalidate_page w 0;
  let r = Walker.translate w 0 in
  check Alcotest.int "tier entry dropped with the page" 4
    r.Walker.memory_accesses

(* Tier disabled = the pre-tier walker, byte for byte: same per-walk
   results and an obs snapshot with no tcache names in it. *)
let test_walker_tcache_disabled_identical () =
  let mk config =
    let reg = Atp_obs.Registry.create () in
    let pt = Page_table.create () in
    for v = 0 to 255 do
      Page_table.map pt ~vpage:v ~frame:v ()
    done;
    let w = Walker.create ~config ~obs:(Atp_obs.Scope.v reg) pt in
    let results = ref [] in
    for i = 0 to 999 do
      let v = i * 37 mod 256 in
      let r = Walker.translate w v in
      results := (r.Walker.memory_accesses, r.Walker.cycles) :: !results;
      if i mod 97 = 0 then Walker.invalidate_page w v
    done;
    (!results, Walker.stats w, Atp_obs.Registry.snapshot reg)
  in
  let r_disabled, s_disabled, snap_disabled =
    mk { Walker.default_config with tcache_entries = 0 }
  in
  let r_default, s_default, snap_default = mk Walker.default_config in
  check Alcotest.bool "per-walk results identical" true
    (r_disabled = r_default);
  check Alcotest.bool "stats identical" true (s_disabled = s_default);
  check Alcotest.bool "obs snapshots identical" true
    (snap_disabled = snap_default)

let test_walker_tcache_obs_names () =
  let snapshot config =
    let reg = Atp_obs.Registry.create () in
    let pt = Page_table.create () in
    Page_table.map pt ~vpage:0 ~frame:0 ();
    let w = Walker.create ~config ~obs:(Atp_obs.Scope.v reg) pt in
    ignore (Walker.translate w 0);
    Atp_obs.Json.to_string (Atp_obs.Registry.snapshot reg)
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let off = snapshot { Walker.default_config with tcache_entries = 0 } in
  let on = snapshot (tiered_config ()) in
  check Alcotest.bool "disabled tier registers nothing" false
    (contains off "tcache");
  check Alcotest.bool "enabled tier is observable" true (contains on "tcache")

(* --- Nested ------------------------------------------------------------ *)

let test_nested_translates () =
  let n = Nested.create () in
  Nested.guest_map n ~gva:100 ~gpa:7;
  Nested.host_map n ~gpa:7 ~hpa:99;
  let r = Nested.translate n 100 in
  check Alcotest.(option int) "end-to-end frame" (Some 99) r.Nested.hframe

let test_nested_cost_exceeds_bare_metal () =
  (* The headline effect: nested cold walks cost several times a bare
     walk (up to 24 accesses vs 4 on x86). *)
  let n = Nested.create () in
  Nested.guest_map n ~gva:0 ~gpa:0;
  let r = Nested.translate n 0 in
  check Alcotest.bool
    (Printf.sprintf "cold nested walk is expensive (%d accesses)"
       r.Nested.memory_accesses)
    true
    (r.Nested.memory_accesses > Page_table.levels * 2);
  check Alcotest.bool "bounded by the 2D worst case" true
    (r.Nested.memory_accesses
     <= ((Page_table.levels + 1) * (Page_table.levels + 1)) - 1)

let test_nested_warm_walks_cheapen () =
  let n = Nested.create () in
  Nested.guest_map n ~gva:0 ~gpa:0;
  let cold = Nested.translate n 0 in
  let warm = Nested.translate n 0 in
  check Alcotest.bool "host TLB + PWC help" true
    (warm.Nested.memory_accesses < cold.Nested.memory_accesses)

let test_nested_unmapped_guest () =
  let n = Nested.create () in
  let r = Nested.translate n 4242 in
  check Alcotest.bool "absent guest mapping" true (r.Nested.hframe = None)

let test_nested_epsilon_vs_bare () =
  (* Random accesses over a large space: the effective epsilon under
     virtualization must exceed the bare-metal one. *)
  let rng = Atp_util.Prng.create ~seed:1 () in
  let pages = Array.init 2_000 (fun _ -> Atp_util.Prng.int rng 100_000) in
  let pt = Page_table.create () in
  let bare = Walker.create pt in
  let nested = Nested.create () in
  Array.iter
    (fun v ->
      if Page_table.lookup pt v = None then Page_table.map pt ~vpage:v ~frame:v ();
      ignore (Walker.translate bare v);
      (try Nested.guest_map nested ~gva:v ~gpa:v with Invalid_argument _ -> ());
      ignore (Nested.translate nested v))
    pages;
  let io = 40_000 in
  let e_bare = Walker.epsilon bare ~io_latency_cycles:io in
  let e_nested = Nested.epsilon nested ~io_latency_cycles:io in
  check Alcotest.bool
    (Printf.sprintf "nested eps (%.4f) > bare eps (%.4f)" e_nested e_bare)
    true (e_nested > e_bare)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "atp.mmu"
    [
      ( "page_table",
        Alcotest.test_case "map/lookup" `Quick test_pt_map_lookup
        :: Alcotest.test_case "unmap" `Quick test_pt_unmap
        :: Alcotest.test_case "duplicate" `Quick test_pt_duplicate_rejected
        :: Alcotest.test_case "huge leaf" `Quick test_pt_huge_leaf
        :: Alcotest.test_case "alignment" `Quick test_pt_huge_alignment
        :: Alcotest.test_case "overlap" `Quick test_pt_overlap_rejected
        :: Alcotest.test_case "accessed/dirty" `Quick test_pt_accessed_dirty
        :: Alcotest.test_case "clear_accessed keeps dirty" `Quick
             test_pt_clear_accessed_preserves_dirty
        :: Alcotest.test_case "iter order" `Quick test_pt_iter_order
        :: qsuite [ prop_pt_matches_model ] );
      ( "walker",
        [
          Alcotest.test_case "cost structure" `Quick test_walker_cost_structure;
          Alcotest.test_case "huge leaf cheaper" `Quick test_walker_huge_leaf_cheaper;
          Alcotest.test_case "pwc locality" `Quick test_walker_locality_via_pwc;
          Alcotest.test_case "invalidate" `Quick test_walker_invalidate;
          Alcotest.test_case "epsilon" `Quick test_walker_epsilon;
          Alcotest.test_case "tcache epsilon" `Quick test_walker_tcache_epsilon;
          Alcotest.test_case "unmapped" `Quick test_walker_unmapped;
          Alcotest.test_case "invlpg precision" `Quick
            test_walker_invalidate_page_precision;
          Alcotest.test_case "invlpg shared prefix" `Quick
            test_walker_invalidate_page_shared_prefix;
          Alcotest.test_case "tcache inclusive hit" `Quick
            test_walker_tcache_inclusive_hit;
          Alcotest.test_case "tcache exclusive deposit" `Quick
            test_walker_tcache_exclusive_deposit;
          Alcotest.test_case "tcache never serves unmapped" `Quick
            test_walker_tcache_never_serves_unmapped;
          Alcotest.test_case "tcache invalidate page" `Quick
            test_walker_tcache_invalidate_page;
          Alcotest.test_case "tier disabled = pre-tier walker" `Quick
            test_walker_tcache_disabled_identical;
          Alcotest.test_case "tcache obs naming" `Quick
            test_walker_tcache_obs_names;
        ]
        @ qsuite [ prop_walker_invalidate_matches_model ] );
      ( "nested",
        [
          Alcotest.test_case "translates" `Quick test_nested_translates;
          Alcotest.test_case "cold cost" `Quick test_nested_cost_exceeds_bare_metal;
          Alcotest.test_case "warm cheapens" `Quick test_nested_warm_walks_cheapen;
          Alcotest.test_case "unmapped guest" `Quick test_nested_unmapped_guest;
          Alcotest.test_case "epsilon vs bare" `Quick test_nested_epsilon_vs_bare;
        ] );
    ]
