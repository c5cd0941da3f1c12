(* Tests for the ASID-tagged TLB and its id allocator, and a pointer
   chase against a small LRU TLB. *)

open Atp_tlb

let check = Alcotest.check

(* --- Asid -------------------------------------------------------------- *)

let test_asid_isolation () =
  let t = Asid.create ~entries:8 () in
  ignore (Asid.insert t ~asid:1 100 11);
  ignore (Asid.insert t ~asid:2 100 22);
  check Alcotest.(option int) "asid 1 sees its own" (Some 11)
    (Asid.lookup t ~asid:1 100);
  check Alcotest.(option int) "asid 2 sees its own" (Some 22)
    (Asid.lookup t ~asid:2 100);
  check Alcotest.(option int) "asid 3 sees nothing" None
    (Asid.lookup t ~asid:3 100)

let test_asid_survives_switch () =
  (* The whole point of ASIDs: no flush on switch. *)
  let t = Asid.create ~entries:8 () in
  ignore (Asid.insert t ~asid:1 5 50);
  (* "switch" to asid 2, do work, switch back *)
  ignore (Asid.insert t ~asid:2 6 60);
  check Alcotest.(option int) "entry survived" (Some 50)
    (Asid.lookup t ~asid:1 5)

let test_asid_global_lru_pressure () =
  (* A noisy neighbor can evict another process's entries. *)
  let t = Asid.create ~entries:4 () in
  ignore (Asid.insert t ~asid:1 0 0);
  for v = 0 to 9 do
    ignore (Asid.insert t ~asid:2 v v)
  done;
  check Alcotest.(option int) "evicted by the neighbor" None
    (Asid.lookup t ~asid:1 0);
  let share = Asid.per_asid_share t in
  check Alcotest.(list (pair int int)) "asid 2 owns the TLB" [ (2, 4) ] share

let test_asid_flush_asid () =
  let t = Asid.create ~entries:8 () in
  ignore (Asid.insert t ~asid:1 0 0);
  ignore (Asid.insert t ~asid:1 1 1);
  ignore (Asid.insert t ~asid:2 0 0);
  check Alcotest.int "dropped two" 2 (Asid.flush_asid t 1);
  check Alcotest.(option int) "asid 1 gone" None (Asid.lookup t ~asid:1 0);
  check Alcotest.(option int) "asid 2 intact" (Some 0) (Asid.lookup t ~asid:2 0)

let test_asid_bounds () =
  let t = Asid.create ~asid_bits:4 ~entries:4 () in
  check Alcotest.int "max asid" 15 (Asid.max_asid t);
  Alcotest.check_raises "asid out of range"
    (Invalid_argument "Asid: asid out of range") (fun () ->
      ignore (Asid.lookup t ~asid:16 0))

(* --- Asid.Allocator ------------------------------------------------------ *)

let test_allocator_rollover () =
  let t = Asid.create ~asid_bits:2 ~entries:8 () in
  let a = Asid.Allocator.create t in
  check Alcotest.int "capacity" 4 (Asid.Allocator.capacity a);
  let ids = List.init 4 (fun _ -> Asid.Allocator.allocate a) in
  check Alcotest.(list int) "fresh ids in order" [ 0; 1; 2; 3 ] ids;
  ignore (Asid.insert t ~asid:0 1 111);
  Asid.Allocator.free a 0;
  Asid.Allocator.free a 2;
  check Alcotest.int "live" 2 (Asid.Allocator.live a);
  check Alcotest.int "no rollover yet" 0 (Asid.Allocator.generation a);
  (* Freed ids stay quarantined: the entry of dead asid 0 is still in
     the TLB right now — only the rollover flush launders it. *)
  check Alcotest.(option int) "lazy free leaves the entry" (Some 111)
    (Asid.lookup t ~asid:0 1);
  let r1 = Asid.Allocator.allocate a in
  check Alcotest.int "rollover recycles the smallest freed id" 0 r1;
  check Alcotest.int "one generation" 1 (Asid.Allocator.generation a);
  check Alcotest.(option int) "rollover flushed the stale entry" None
    (Asid.lookup t ~asid:0 1);
  let r2 = Asid.Allocator.allocate a in
  check Alcotest.int "then the next clean id" 2 r2;
  check Alcotest.int "still one generation" 1 (Asid.Allocator.generation a);
  Asid.Allocator.free a r1;
  check Alcotest.int "second rollover" 0 (Asid.Allocator.allocate a);
  check Alcotest.int "generation 2" 2 (Asid.Allocator.generation a);
  Alcotest.check_raises "exhaustion"
    (Invalid_argument "Asid.Allocator.allocate: address-space ids exhausted")
    (fun () -> ignore (Asid.Allocator.allocate a));
  Alcotest.check_raises "free out of range"
    (Invalid_argument "Asid.Allocator.free: bad asid") (fun () ->
      Asid.Allocator.free a 4)

(* ASID reuse never surfaces a dead address space's translations, even
   across generation rollovers — checked differentially against a
   reference that tracks, per (owner, vpage), exactly what the current
   owner inserted.  A payload from any previous owner of a recycled
   asid is a leak. *)
let prop_allocator_never_leaks =
  let ops_gen =
    QCheck.(list_of_size (Gen.int_range 0 400) (pair (int_bound 99) (int_bound 7)))
  in
  QCheck.Test.make ~count:100 ~name:"Allocator: recycled asids never leak"
    ops_gen (fun ops ->
      let t = Asid.create ~asid_bits:2 ~entries:6 () in
      let a = Asid.Allocator.create t in
      (* Live address spaces: asid -> (uid, reference contents). *)
      let live = Hashtbl.create 8 in
      let next_uid = ref 0 in
      let asids () = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
      List.iter
        (fun (op, vpage) ->
          match op mod 4 with
          | 0 ->
            if Hashtbl.length live < Asid.Allocator.capacity a then begin
              let asid = Asid.Allocator.allocate a in
              let uid = !next_uid in
              incr next_uid;
              if Hashtbl.mem live asid then
                QCheck.Test.fail_reportf "asid %d double-allocated" asid;
              Hashtbl.add live asid (uid, Hashtbl.create 4)
            end
          | 1 -> (
            match asids () with
            | [] -> ()
            | l ->
              let asid = List.nth l (op / 4 mod List.length l) in
              Hashtbl.remove live asid;
              Asid.Allocator.free a asid)
          | 2 -> (
            match asids () with
            | [] -> ()
            | l ->
              let asid = List.nth l (op / 4 mod List.length l) in
              let uid, contents = Hashtbl.find live asid in
              let payload = (uid * 1000) + vpage in
              Hashtbl.replace contents vpage payload;
              ignore (Asid.insert t ~asid vpage payload))
          | _ -> (
            match asids () with
            | [] -> ()
            | l ->
              let asid = List.nth l (op / 4 mod List.length l) in
              let _, contents = Hashtbl.find live asid in
              (match Asid.lookup t ~asid vpage with
              | None -> ()  (* evicted or flushed: always legal *)
              | Some p -> (
                match Hashtbl.find_opt contents vpage with
                | Some expected when expected = p -> ()
                | Some expected ->
                  QCheck.Test.fail_reportf
                    "asid %d vpage %d: got %d, current owner wrote %d" asid
                    vpage p expected
                | None ->
                  QCheck.Test.fail_reportf
                    "asid %d vpage %d: stale payload %d leaked from a dead \
                     address space"
                    asid vpage p))))
        ops;
      Hashtbl.iter
        (fun asid (_, contents) ->
          Hashtbl.iter
            (fun vpage expected ->
              match Asid.lookup t ~asid vpage with
              | Some p when p <> expected ->
                QCheck.Test.fail_reportf "final sweep: asid %d leaked" asid
              | _ -> ())
            contents)
        live;
      true)

(* --- Pointer chase ---------------------------------------------------- *)

let test_pointer_chase_defeats_small_tlb () =
  (* Classic result: a cyclic chase over one page more than the TLB
     holds misses every access under LRU. *)
  let trace = Array.init 1_000 (fun i -> i mod 100) in
  let inst = Atp_paging.Policy.instantiate (module Atp_paging.Lru) ~capacity:99 () in
  let stats = Atp_paging.Sim.run inst trace in
  check Alcotest.int "misses everything" 1_000 stats.Atp_paging.Sim.misses

let () =
  Alcotest.run "atp.multi"
    [
      ( "asid",
        [
          Alcotest.test_case "isolation" `Quick test_asid_isolation;
          Alcotest.test_case "survives switch" `Quick test_asid_survives_switch;
          Alcotest.test_case "global LRU pressure" `Quick test_asid_global_lru_pressure;
          Alcotest.test_case "flush one asid" `Quick test_asid_flush_asid;
          Alcotest.test_case "bounds" `Quick test_asid_bounds;
          Alcotest.test_case "allocator rollover" `Quick test_allocator_rollover;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_allocator_never_leaks ] );
      ( "hpc",
        [
          Alcotest.test_case "chase defeats small TLB" `Quick
            test_pointer_chase_defeats_small_tlb;
        ] );
    ]
