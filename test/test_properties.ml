(* qcheck property tests over random request streams.

   Complements the deterministic generic invariants in test_paging:
   here capacities, trace lengths and page universes are all drawn at
   random, and LRU is additionally checked step-by-step against a
   naive list-based reference model. *)

open Atp_util
open Atp_paging

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* (capacity, page universe, requests) with shrinking-friendly sizes. *)
let stream_arb =
  QCheck.(
    triple (Sizes.range 1 16) (Sizes.range 1 32)
      (list_of_size Gen.(int_range 1 300) (int_bound 1000)))

let trace_of (universe, pages) =
  Array.of_list (List.map (fun p -> p mod universe) pages)

(* size <= capacity, size = |resident|, resident distinct — after
   EVERY access, not just at the end. *)
let prop_size_bounded_throughout =
  QCheck.Test.make ~name:"every policy: size bounded at every step" ~count:50
    stream_arb (fun (capacity, universe, pages) ->
      let trace = trace_of (universe, pages) in
      List.for_all
        (fun (module P : Policy.S) ->
          let rng = Prng.create ~seed:42 () in
          let t = P.create ~rng ~capacity () in
          Array.for_all
            (fun page ->
              ignore (P.access t page);
              P.size t <= capacity
              && P.size t = List.length (P.resident t)
              && List.length (List.sort_uniq compare (P.resident t))
                 = P.size t)
            trace)
        Registry.all)

(* Outcomes partition the stream: every access is a hit or a miss,
   hits happen exactly on resident pages, and Sim's bookkeeping agrees
   with a manual count. *)
let prop_hit_miss_counts_consistent =
  QCheck.Test.make ~name:"every policy: hit/miss counts consistent" ~count:50
    stream_arb (fun (capacity, universe, pages) ->
      let trace = trace_of (universe, pages) in
      List.for_all
        (fun (module P : Policy.S) ->
          let rng = Prng.create ~seed:7 () in
          let t = P.create ~rng ~capacity () in
          let hits = ref 0 and misses = ref 0 and ok = ref true in
          Array.iter
            (fun page ->
              let resident_before = P.mem t page in
              (match P.access t page with
               | Policy.Hit ->
                 incr hits;
                 if not resident_before then ok := false
               | Policy.Miss _ ->
                 incr misses;
                 if resident_before then ok := false);
              if not (P.mem t page) then ok := false)
            trace;
          !ok
          && !hits + !misses = Array.length trace
          &&
          (* The same policy under Sim.run produces the same split. *)
          let rng = Prng.create ~seed:7 () in
          let inst = Policy.instantiate (module P) ~rng ~capacity () in
          let s = Sim.run inst trace in
          s.Sim.accesses = Array.length trace
          && s.Sim.hits + s.Sim.misses = s.Sim.accesses)
        Registry.all)

(* --- LRU vs a naive reference model -------------------------------- *)

(* The reference: a list, most recent first.  O(n) per access, obviously
   correct. *)
module Naive_lru = struct
  type t = { capacity : int; mutable stack : int list }

  let create capacity = { capacity; stack = [] }

  let access t page =
    if List.mem page t.stack then begin
      t.stack <- page :: List.filter (fun p -> p <> page) t.stack;
      Policy.Hit
    end
    else if List.length t.stack < t.capacity then begin
      t.stack <- page :: t.stack;
      Policy.Miss { evicted = None }
    end
    else
      let rec split_last acc = function
        | [] -> assert false
        | [ victim ] -> (List.rev acc, victim)
        | p :: rest -> split_last (p :: acc) rest
      in
      let kept, victim = split_last [] t.stack in
      t.stack <- page :: kept;
      Policy.Miss { evicted = Some victim }
end

let prop_lru_matches_naive_reference =
  QCheck.Test.make
    ~name:"LRU agrees with naive list-based reference, per access"
    ~count:200 stream_arb (fun (capacity, universe, pages) ->
      let trace = trace_of (universe, pages) in
      let lru = Lru.create ~capacity () in
      let ref_model = Naive_lru.create capacity in
      Array.for_all
        (fun page -> Lru.access lru page = Naive_lru.access ref_model page)
        trace)

(* remove is also part of the contract: interleave removes and check
   the models keep agreeing. *)
let prop_lru_matches_naive_with_removes =
  QCheck.Test.make ~name:"LRU matches reference under access+remove mix"
    ~count:100 stream_arb (fun (capacity, universe, pages) ->
      let trace = trace_of (universe, pages) in
      let lru = Lru.create ~capacity () in
      let ref_model = Naive_lru.create capacity in
      let i = ref 0 in
      Array.for_all
        (fun page ->
          incr i;
          if !i mod 7 = 0 then begin
            (* A shootdown of this page in both models. *)
            let removed = Lru.remove lru page in
            let was = List.mem page ref_model.Naive_lru.stack in
            ref_model.Naive_lru.stack <-
              List.filter (fun p -> p <> page) ref_model.Naive_lru.stack;
            removed = was
          end
          else Lru.access lru page = Naive_lru.access ref_model page)
        trace)

(* A failing property over sizes reports its least failing size, not
   an error from below the floor.  Sizes come from [3, 9], the code
   under test rejects sizes below 3, and a property that fails from [t]
   up must shrink to exactly [t], for every [t] in the interval.  From 3
   or 4, qcheck's integer shrinker proposes 2 next. *)
let test_size_shrinks_within_interval () =
  let rand = Random.State.make [| 7 |] in
  List.iter
    (fun t ->
      let cell =
        QCheck.Test.make_cell ~count:200 ~name:"fails from t up"
          (Sizes.range 3 9) (fun n ->
            if n < 3 then invalid_arg "size below the floor";
            n < t)
      in
      let what = Printf.sprintf "failing from %d up" t in
      match QCheck.TestResult.get_state (QCheck.Test.check_cell ~rand cell) with
      | Failed { instances = c :: _ } ->
        Alcotest.(check int) what t c.QCheck.TestResult.instance
      | Failed { instances = [] } -> Alcotest.failf "%s: no counterexample" what
      | Success -> Alcotest.failf "%s: the property never failed" what
      | Failed_other { msg } -> Alcotest.failf "%s: %s" what msg
      | Error { instance; exn; _ } ->
        Alcotest.failf "%s: error at size %d: %s" what
          instance.QCheck.TestResult.instance (Printexc.to_string exn))
    [ 3; 4; 5; 6; 7; 8; 9 ]

let () =
  Alcotest.run "properties"
    [
      ( "policy invariants (qcheck)",
        qsuite [ prop_size_bounded_throughout; prop_hit_miss_counts_consistent ]
      );
      ( "lru reference model",
        qsuite
          [ prop_lru_matches_naive_reference; prop_lru_matches_naive_with_removes ]
      );
      ( "sizes",
        [
          Alcotest.test_case "shrink stays in the interval" `Quick
            test_size_shrinks_within_interval;
        ] );
    ]
