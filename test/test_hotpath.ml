(* The allocation-free hot-path primitives must agree with their
   reference forms: the int-coded Z step with the golden recorded from
   the boxed-outcome core it replaced, and the zero-copy chunk visitors
   with the trace they decode. *)

open Atp_workloads

let check = Alcotest.check

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- Z step = the boxed core's golden ------------------------------ *)

(* golden/sim_pairs.txt is what golden/sim_pairs.exe prints for nine
   policy pairs on four traces plus a warm-up case: reports, obs
   snapshots and trace digests.  The expected file was recorded from
   the boxed-outcome Simulation before the int-coded step replaced it;
   after an intentional change to Z's accounting, regenerate it with
   [dune build test/golden/sim_pairs.txt] and copy the result over.
   The cold-start pairs and the warm-up cases that follow them are
   checked as two cases, so a failure names the section it is in. *)
let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* (cold-start lines, warm-up lines) of a sim_pairs output: the warm-up
   section starts at the first "x/y with warmup: ..." report line. *)
let golden_sections path =
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  in
  let rec split cold = function
    | l :: _ as rest when contains ~sub:" with warmup: " l -> (List.rev cold, rest)
    | l :: rest -> split (l :: cold) rest
    | [] -> (List.rev cold, [])
  in
  split [] lines

let test_golden_sim_pairs () =
  let expected, _ = golden_sections "golden/sim_pairs.expected.txt" in
  let got, _ = golden_sections "golden/sim_pairs.txt" in
  check Alcotest.bool "golden has cold-start pairs" true (expected <> []);
  check Alcotest.(list string) "golden/sim_pairs.expected.txt" expected got

let test_golden_sim_pairs_warmup () =
  let _, expected = golden_sections "golden/sim_pairs.expected.txt" in
  let _, got = golden_sections "golden/sim_pairs.txt" in
  check Alcotest.bool "golden has warm-up cases" true (expected <> []);
  check Alcotest.(list string) "golden/sim_pairs.expected.txt (warm-up)" expected got

(* --- chunk visitor round-trips -------------------------------------- *)

let with_stream pages chunk_size f =
  let path = Filename.temp_file "atp_test_chunks" ".atps" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.Stream.with_writer ~chunk_size path (fun w ->
          List.iter (Trace.Stream.push w) pages);
      Trace.Stream.with_reader path f)

let prop_fold_chunks_roundtrip =
  QCheck.Test.make ~count:80 ~name:"fold_chunks concatenates to the trace"
    QCheck.(
      pair (Sizes.range 1 17)
        (list_of_size Gen.(int_range 0 300) (int_bound 10_000)))
    (fun (chunk_size, pages) ->
      let got =
        with_stream pages chunk_size (fun r ->
            Trace.Stream.fold_chunks
              (fun acc buf n ->
                let acc = ref acc in
                for i = 0 to n - 1 do
                  acc := Bigarray.Array1.get buf i :: !acc
                done;
                !acc)
              [] r)
      in
      List.rev got = pages)

let prop_read_into_roundtrip =
  QCheck.Test.make ~count:80
    ~name:"read_into reassembles the trace for any block pattern"
    QCheck.(
      triple (Sizes.range 1 17) (Sizes.range 1 23)
        (list_of_size Gen.(int_range 0 300) (int_bound 10_000)))
    (fun (chunk_size, block, pages) ->
      let n = List.length pages in
      let got =
        with_stream pages chunk_size (fun r ->
            let dst = Array.make (max n 1) (-1) in
            let rec pull pos =
              if pos >= n then pos
              else begin
                let want = min block (n - pos) in
                let got = Trace.Stream.read_into r dst pos want in
                if got = 0 then pos else pull (pos + got)
              end
            in
            let filled = pull 0 in
            Array.sub dst 0 filled
        )
      in
      Array.to_list got = pages)

let prop_read_into_agrees_with_next_chunk =
  QCheck.Test.make ~count:60
    ~name:"read_into drains exactly what next_chunk would"
    QCheck.(
      pair (Sizes.range 1 13)
        (list_of_size Gen.(int_range 0 200) (int_bound 10_000)))
    (fun (chunk_size, pages) ->
      let via_chunks =
        with_stream pages chunk_size (fun r ->
            let rec go acc =
              match Trace.Stream.next_chunk r with
              | None -> List.concat (List.rev acc)
              | Some c ->
                let l = ref [] in
                for i = Bigarray.Array1.dim c - 1 downto 0 do
                  l := Bigarray.Array1.get c i :: !l
                done;
                go (!l :: acc)
            in
            go [])
      in
      via_chunks = pages)

let () =
  Alcotest.run "hotpath"
    [
      ( "differential",
        [
          Alcotest.test_case "Z step = boxed-core golden" `Quick
            test_golden_sim_pairs;
          Alcotest.test_case "Z step = boxed-core golden, warm-up" `Quick
            test_golden_sim_pairs_warmup;
        ] );
      ( "chunks",
        qsuite
          [
            prop_fold_chunks_roundtrip;
            prop_read_into_roundtrip;
            prop_read_into_agrees_with_next_chunk;
          ] );
    ]
