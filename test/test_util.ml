open Atp_util

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 () and b = Prng.create ~seed:7 () in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 () and b = Prng.create ~seed:2 () in
  let differs = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)) then
      differs := true
  done;
  check Alcotest.bool "streams differ" true !differs

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_rejects_nonpositive () =
  let rng = Prng.create () in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_int_covers_support () =
  let rng = Prng.create ~seed:11 () in
  let seen = Array.make 7 false in
  for _ = 1 to 2_000 do
    seen.(Prng.int rng 7) <- true
  done;
  Array.iteri (fun i s -> check Alcotest.bool (Printf.sprintf "hit %d" i) true s) seen

let test_prng_float_range () =
  let rng = Prng.create ~seed:5 () in
  for _ = 1 to 10_000 do
    let f = Prng.float rng in
    check Alcotest.bool "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_uniformity_rough () =
  let rng = Prng.create ~seed:13 () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Prng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      check Alcotest.bool "within 10% of uniform" true
        (abs (c - expected) < expected / 10))
    buckets

let test_prng_shuffle_permutes () =
  let rng = Prng.create ~seed:17 () in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_prng_split_independent () =
  let rng = Prng.create ~seed:19 () in
  let child = Prng.split rng in
  (* Drawing from the child must not affect the parent's stream. *)
  let parent_probe = Prng.copy rng in
  for _ = 1 to 10 do ignore (Prng.next_int64 child) done;
  check Alcotest.int64 "parent unaffected" (Prng.next_int64 parent_probe)
    (Prng.next_int64 rng)

(* ------------------------------------------------------------------ *)
(* Hashing                                                             *)
(* ------------------------------------------------------------------ *)

let test_hash_in_range () =
  for seed = 0 to 20 do
    for x = 0 to 500 do
      let h = Hashing.hash_in ~seed 37 x in
      check Alcotest.bool "bucket in range" true (h >= 0 && h < 37)
    done
  done

let test_hash_deterministic () =
  check Alcotest.int "stable" (Hashing.hash ~seed:5 42) (Hashing.hash ~seed:5 42)

let test_hash_seed_matters () =
  let same = ref 0 in
  for x = 0 to 99 do
    if Hashing.hash ~seed:1 x = Hashing.hash ~seed:2 x then incr same
  done;
  check Alcotest.bool "different seeds disagree" true (!same < 5)

let test_hash_family () =
  let rng = Prng.create ~seed:23 () in
  let fam = Hashing.family rng ~k:3 ~range:100 in
  check Alcotest.int "k" 3 (Hashing.k fam);
  check Alcotest.int "range" 100 (Hashing.range fam);
  for i = 0 to 2 do
    for x = 0 to 200 do
      let v = Hashing.apply fam i x in
      check Alcotest.bool "in range" true (v >= 0 && v < 100)
    done
  done

let test_hash_in_spreads () =
  (* Consecutive integers should land all over the range. *)
  let n = 64 in
  let seen = Array.make n false in
  for x = 0 to 4_000 do
    seen.(Hashing.hash_in ~seed:9 n x) <- true
  done;
  Array.iteri (fun i s -> check Alcotest.bool (Printf.sprintf "bucket %d hit" i) true s) seen

(* ------------------------------------------------------------------ *)
(* Bitvec                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitvec_basics () =
  let v = Bitvec.create 100 in
  check Alcotest.int "length" 100 (Bitvec.length v);
  check Alcotest.bool "initially clear" false (Bitvec.get v 50);
  Bitvec.set v 50;
  check Alcotest.bool "set" true (Bitvec.get v 50);
  check Alcotest.int "popcount" 1 (Bitvec.pop_count v);
  Bitvec.clear v 50;
  check Alcotest.bool "cleared" false (Bitvec.get v 50);
  check Alcotest.int "popcount zero" 0 (Bitvec.pop_count v)

let test_bitvec_bounds () =
  let v = Bitvec.create 8 in
  Alcotest.check_raises "oob get" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get v 8))

let test_bitvec_first_clear () =
  let v = Bitvec.create 5 in
  for i = 0 to 4 do Bitvec.set v i done;
  check Alcotest.(option int) "full" None (Bitvec.first_clear v);
  Bitvec.clear v 3;
  check Alcotest.(option int) "index 3" (Some 3) (Bitvec.first_clear v)

let test_bitvec_fill () =
  let v = Bitvec.create 13 in
  Bitvec.fill v true;
  check Alcotest.int "all set" 13 (Bitvec.pop_count v);
  Bitvec.fill v false;
  check Alcotest.int "all clear" 0 (Bitvec.pop_count v)

let test_bitvec_iter_set () =
  let v = Bitvec.create 20 in
  List.iter (Bitvec.set v) [ 1; 7; 19 ];
  let acc = ref [] in
  Bitvec.iter_set (fun i -> acc := i :: !acc) v;
  check Alcotest.(list int) "indices in order" [ 1; 7; 19 ] (List.rev !acc)

let prop_bitvec_model =
  QCheck.Test.make ~name:"bitvec matches bool-array model" ~count:200
    QCheck.(pair (int_bound 200) (list (pair (int_bound 199) bool)))
    (fun (len, ops) ->
      let len = len + 1 in
      let v = Bitvec.create len in
      let model = Array.make len false in
      List.iter
        (fun (i, b) ->
          let i = i mod len in
          Bitvec.assign v i b;
          model.(i) <- b)
        ops;
      let ok = ref true in
      Array.iteri (fun i b -> if Bitvec.get v i <> b then ok := false) model;
      !ok && Bitvec.pop_count v = Array.fold_left (fun a b -> if b then a + 1 else a) 0 model)

(* ------------------------------------------------------------------ *)
(* Packed_array                                                        *)
(* ------------------------------------------------------------------ *)

let test_packed_array_basics () =
  let a = Packed_array.create ~width:6 ~length:10 in
  check Alcotest.int "max value" 63 (Packed_array.max_value a);
  check Alcotest.int "total bits" 60 (Packed_array.total_bits a);
  Packed_array.set a 0 63;
  Packed_array.set a 9 42;
  check Alcotest.int "first" 63 (Packed_array.get a 0);
  check Alcotest.int "last" 42 (Packed_array.get a 9);
  check Alcotest.int "untouched" 0 (Packed_array.get a 5)

let test_packed_array_rejects_overflow () =
  let a = Packed_array.create ~width:3 ~length:4 in
  Alcotest.check_raises "too big"
    (Invalid_argument "Packed_array.set: value out of range") (fun () ->
      Packed_array.set a 0 8)

let test_packed_array_bytes_roundtrip () =
  let a = Packed_array.create ~width:11 ~length:7 in
  for i = 0 to 6 do Packed_array.set a i (i * 37 mod 2048) done;
  let b = Packed_array.of_bytes ~width:11 ~length:7 (Packed_array.blit_to_bytes a) in
  for i = 0 to 6 do
    check Alcotest.int "roundtrip" (Packed_array.get a i) (Packed_array.get b i)
  done

let prop_packed_array_model =
  QCheck.Test.make ~name:"packed array matches int-array model" ~count:300
    QCheck.(
      triple (Sizes.range 1 20) (Sizes.range 1 50)
        (list (pair small_nat small_nat)))
    (fun (width, length, ops) ->
      let a = Packed_array.create ~width ~length in
      let model = Array.make length 0 in
      let maxv = (1 lsl width) - 1 in
      List.iter
        (fun (i, v) ->
          let i = i mod length and v = v land maxv in
          Packed_array.set a i v;
          model.(i) <- v)
        ops;
      let ok = ref true in
      Array.iteri (fun i v -> if Packed_array.get a i <> v then ok := false) model;
      !ok)

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_sampler_zipf_bounds_and_skew () =
  let rng = Prng.create ~seed:41 () in
  let n = 10_000 in
  let s = Sampler.zipf ~s:1.2 ~n in
  let first = ref 0 and total = 20_000 in
  for _ = 1 to total do
    let v = s rng in
    check Alcotest.bool "in support" true (v >= 0 && v < n);
    if v = 0 then incr first
  done;
  (* P(0) for s=1.2, n=10000 is about 0.18. *)
  check Alcotest.bool "rank 0 frequent" true
    (!first > total / 10 && !first < total / 3)

let test_sampler_zipf_singleton () =
  let rng = Prng.create () in
  let s = Sampler.zipf ~s:1.0 ~n:1 in
  check Alcotest.int "only value" 0 (s rng)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check Alcotest.int "count" 8 (Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.Summary.mean s);
  check (Alcotest.float 1e-9) "variance" (32.0 /. 7.0) (Stats.Summary.variance s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.Summary.max s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  check (Alcotest.float 0.0) "mean of empty" 0.0 (Stats.Summary.mean s);
  check (Alcotest.float 0.0) "variance of empty" 0.0 (Stats.Summary.variance s)

let test_log_histogram () =
  let h = Stats.Log_histogram.create () in
  List.iter (Stats.Log_histogram.add h) [ 0; 1; 2; 3; 4; 1024 ];
  check Alcotest.int "count" 6 (Stats.Log_histogram.count h);
  check Alcotest.int "bucket 0 (values 0..1)" 2 (Stats.Log_histogram.bucket h 0);
  check Alcotest.int "bucket 1 (2..3)" 2 (Stats.Log_histogram.bucket h 1);
  check Alcotest.int "bucket 2 (4..7)" 1 (Stats.Log_histogram.bucket h 2);
  check Alcotest.int "bucket 10" 1 (Stats.Log_histogram.bucket h 10)

let test_log_histogram_percentile () =
  let h = Stats.Log_histogram.create () in
  for _ = 1 to 99 do Stats.Log_histogram.add h 1 done;
  Stats.Log_histogram.add h 1000;
  check Alcotest.int "p50 small" 1 (Stats.Log_histogram.percentile h 0.5);
  check Alcotest.bool "p100 covers big" true
    (Stats.Log_histogram.percentile h 1.0 >= 1000)

let test_pp_count () =
  let s = Format.asprintf "%a" Stats.pp_count 1234567 in
  check Alcotest.string "grouped" "1_234_567" s;
  let s = Format.asprintf "%a" Stats.pp_count (-42) in
  check Alcotest.string "negative" "-42" s

(* ------------------------------------------------------------------ *)
(* Lru_list                                                            *)
(* ------------------------------------------------------------------ *)

let test_lru_list_order () =
  let l = Lru_list.create 5 in
  List.iter (Lru_list.push_front l) [ 0; 1; 2 ];
  check Alcotest.(list int) "front to back" [ 2; 1; 0 ] (Lru_list.to_list l);
  Lru_list.move_to_front l 0;
  check Alcotest.(list int) "after touch" [ 0; 2; 1 ] (Lru_list.to_list l);
  check Alcotest.int "take back is LRU" 1 (Lru_list.take_back l);
  check Alcotest.(list int) "after take" [ 0; 2 ] (Lru_list.to_list l);
  check Alcotest.int "length" 2 (Lru_list.length l);
  ignore (Lru_list.take_back l);
  ignore (Lru_list.take_back l);
  check Alcotest.int "take back when empty" (-1) (Lru_list.take_back l)

let test_lru_list_errors () =
  let l = Lru_list.create 3 in
  Lru_list.push_front l 1;
  Alcotest.check_raises "double link"
    (Invalid_argument "Lru_list.push_front: already linked") (fun () ->
      Lru_list.push_front l 1);
  Alcotest.check_raises "remove unlinked"
    (Invalid_argument "Lru_list.remove: not linked") (fun () ->
      Lru_list.remove l 2)

(* ------------------------------------------------------------------ *)
(* Int_table                                                           *)
(* ------------------------------------------------------------------ *)

let test_int_table_basics () =
  let t = Int_table.create () in
  Int_table.set t 5 50;
  Int_table.set t 6 60;
  check Alcotest.(option int) "find" (Some 50) (Int_table.find t 5);
  check Alcotest.int "length" 2 (Int_table.length t);
  Int_table.set t 5 55;
  check Alcotest.(option int) "overwrite" (Some 55) (Int_table.find t 5);
  check Alcotest.int "length stable" 2 (Int_table.length t);
  check Alcotest.bool "remove" true (Int_table.remove t 5);
  check Alcotest.bool "remove again" false (Int_table.remove t 5);
  check Alcotest.(option int) "gone" None (Int_table.find t 5)

let test_int_table_add_if_absent () =
  let t = Int_table.create () in
  check Alcotest.bool "inserted" true (Int_table.add_if_absent t 1 10);
  check Alcotest.bool "kept" false (Int_table.add_if_absent t 1 20);
  check Alcotest.(option int) "original value" (Some 10) (Int_table.find t 1)

let test_int_table_rejects_negative () =
  let t = Int_table.create () in
  Alcotest.check_raises "negative key"
    (Invalid_argument "Int_table: keys must be non-negative") (fun () ->
      Int_table.set t (-1) 0)

let test_int_table_growth () =
  let t = Int_table.create ~initial_capacity:4 () in
  for i = 0 to 9_999 do Int_table.set t i (i * 2) done;
  check Alcotest.int "length" 10_000 (Int_table.length t);
  for i = 0 to 9_999 do
    check Alcotest.(option int) "value survives growth" (Some (i * 2))
      (Int_table.find t i)
  done

let prop_int_table_model =
  QCheck.Test.make ~name:"int table matches Hashtbl model" ~count:200
    QCheck.(list (pair (int_bound 50) (option small_nat)))
    (fun ops ->
      let t = Int_table.create ~initial_capacity:4 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, op) ->
          match op with
          | Some v ->
            Int_table.set t k v;
            Hashtbl.replace model k v
          | None ->
            let a = Int_table.remove t k in
            let b = Hashtbl.mem model k in
            Hashtbl.remove model k;
            if a <> b then failwith "remove result mismatch")
        ops;
      Int_table.length t = Hashtbl.length model
      && Hashtbl.fold
           (fun k v acc -> acc && Int_table.find t k = Some v)
           model true)

(* Keys i·2^s agree in their low s bits: the pattern of block bases and
   strided pages that a low-bit slot function piles into one home slot.
   Inserts, removes and growth interleave, so backward-shift deletion
   runs over whatever clusters the keys form.  Every key of the stride
   is then looked up, present or not. *)
let strided_ops =
  QCheck.(
    pair (int_bound 20)
      (list_of_size
         Gen.(int_range 1 600)
         (pair (int_bound 255) (option small_nat))))

let replay_strided ~set ~remove ~find ~length (s, ops) =
  let model = Hashtbl.create 16 in
  let agrees k = find k = Hashtbl.find_opt model k in
  List.for_all
    (fun (i, op) ->
      let k = i lsl s in
      (match op with
       | Some v ->
         set k v;
         Hashtbl.replace model k v
       | None ->
         let present = Hashtbl.mem model k in
         Hashtbl.remove model k;
         if remove k <> present then failwith "remove result mismatch");
      agrees k)
    ops
  && List.for_all (fun i -> agrees (i lsl s)) (List.init 256 Fun.id)
  && length () = Hashtbl.length model

let prop_int_table_strided =
  QCheck.Test.make ~name:"int table matches Hashtbl on strided keys"
    ~count:200 strided_ops (fun input ->
      let t = Int_table.create ~initial_capacity:4 () in
      replay_strided input ~set:(Int_table.set t) ~remove:(Int_table.remove t)
        ~find:(Int_table.find t)
        ~length:(fun () -> Int_table.length t))

let prop_poly_table_strided =
  QCheck.Test.make ~name:"poly table matches Hashtbl on strided keys"
    ~count:200 strided_ops (fun input ->
      let t = Int_table.Poly.create ~initial_capacity:4 () in
      replay_strided input
        ~set:(fun k v -> Int_table.Poly.set t k (string_of_int v))
        ~remove:(Int_table.Poly.remove t)
        ~find:(fun k -> Option.map int_of_string (Int_table.Poly.find t k))
        ~length:(fun () -> Int_table.Poly.length t))

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare () in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some v ->
      out := v :: !out;
      drain ()
  in
  drain ();
  check Alcotest.(list int) "ascending" [ 1; 2; 3; 5; 8; 9 ] (List.rev !out)

let test_heap_peek () =
  let h = Heap.create ~cmp:compare () in
  check Alcotest.(option int) "empty peek" None (Heap.peek h);
  Heap.push h 4;
  Heap.push h 2;
  check Alcotest.(option int) "min on top" (Some 2) (Heap.peek h);
  check Alcotest.int "length" 2 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare () in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some v -> drain (v :: acc)
      in
      drain [] = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Page_list                                                           *)
(* ------------------------------------------------------------------ *)

let test_page_list_order () =
  let l = Page_list.create () in
  Page_list.push_front l 10;
  Page_list.push_front l 20;
  Page_list.push_back l 5;
  check Alcotest.(list int) "order" [ 20; 10; 5 ] (Page_list.to_list l);
  Page_list.move_to_front l 5;
  check Alcotest.(list int) "after move" [ 5; 20; 10 ] (Page_list.to_list l);
  check Alcotest.bool "remove" true (Page_list.remove l 20);
  check Alcotest.(list int) "after remove" [ 5; 10 ] (Page_list.to_list l);
  check Alcotest.(option int) "pop front" (Some 5) (Page_list.pop_front l);
  check Alcotest.(option int) "pop back" (Some 10) (Page_list.pop_back l);
  check Alcotest.bool "empty" true (Page_list.is_empty l)

let test_page_list_duplicate () =
  let l = Page_list.create () in
  Page_list.push_front l 1;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Page_list.push_front: duplicate page") (fun () ->
      Page_list.push_front l 1)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "atp.util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int rejects 0" `Quick test_prng_int_rejects_nonpositive;
          Alcotest.test_case "int covers support" `Quick test_prng_int_covers_support;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "rough uniformity" `Quick test_prng_uniformity_rough;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "range" `Quick test_hash_in_range;
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "seed matters" `Quick test_hash_seed_matters;
          Alcotest.test_case "family" `Quick test_hash_family;
          Alcotest.test_case "spreads" `Quick test_hash_in_spreads;
        ] );
      ( "bitvec",
        Alcotest.test_case "basics" `Quick test_bitvec_basics
        :: Alcotest.test_case "bounds" `Quick test_bitvec_bounds
        :: Alcotest.test_case "first_clear" `Quick test_bitvec_first_clear
        :: Alcotest.test_case "fill" `Quick test_bitvec_fill
        :: Alcotest.test_case "iter_set" `Quick test_bitvec_iter_set
        :: qsuite [ prop_bitvec_model ] );
      ( "packed_array",
        Alcotest.test_case "basics" `Quick test_packed_array_basics
        :: Alcotest.test_case "overflow" `Quick test_packed_array_rejects_overflow
        :: Alcotest.test_case "bytes roundtrip" `Quick test_packed_array_bytes_roundtrip
        :: qsuite [ prop_packed_array_model ] );
      ( "sampler",
        [
          Alcotest.test_case "zipf" `Quick test_sampler_zipf_bounds_and_skew;
          Alcotest.test_case "zipf singleton" `Quick test_sampler_zipf_singleton;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "log histogram" `Quick test_log_histogram;
          Alcotest.test_case "percentile" `Quick test_log_histogram_percentile;
          Alcotest.test_case "pp_count" `Quick test_pp_count;
        ] );
      ( "lru_list",
        [
          Alcotest.test_case "order" `Quick test_lru_list_order;
          Alcotest.test_case "errors" `Quick test_lru_list_errors;
        ] );
      ( "int_table",
        Alcotest.test_case "basics" `Quick test_int_table_basics
        :: Alcotest.test_case "add_if_absent" `Quick test_int_table_add_if_absent
        :: Alcotest.test_case "negative keys" `Quick test_int_table_rejects_negative
        :: Alcotest.test_case "growth" `Quick test_int_table_growth
        :: qsuite
             [ prop_int_table_model; prop_int_table_strided;
               prop_poly_table_strided ] );
      ( "heap",
        Alcotest.test_case "sorts" `Quick test_heap_sorts
        :: Alcotest.test_case "peek" `Quick test_heap_peek
        :: qsuite [ prop_heap_sorts ] );
      ( "page_list",
        [
          Alcotest.test_case "order" `Quick test_page_list_order;
          Alcotest.test_case "duplicate" `Quick test_page_list_duplicate;
        ] );
    ]
