(* The real-trace ingestion suite.

   Three families of guarantees:

   - fuzzing: random byte- and line-level mutations of valid hex /
     lackey / CSV inputs (and of packed ATPS files) must produce
     either a successful import or a typed Trace.Parse_error — never
     any other exception, a hang, or, for unmutated inputs, a wrong
     reference count;

   - differential replay: for every committed corpus file under
     test/traces, import -> ATPS -> replay must be byte-identical (cost
     report and obs snapshot) to replaying an independent in-memory
     reference decode of the same file, across lru/fifo/2q and shard
     counts 1/2/4/8 (plus ATP_SHARDS), and every shard count must match
     the one-shard replay;

   - streaming: importing a ~1M-reference trace must keep peak heap
     growth O(chunk), and the format sniffer must classify hex address
     traces as such instead of misreading them as decimal text.

   OCaml has no OCAMLRUNPARAM heap cap, so the space budget is
   enforced with Gc.top_heap_words deltas and a live-words alarm
   instead: both stay orders of magnitude under what materializing
   the trace would cost. *)

open Atp_util
open Atp_core
open Atp_paging
open Atp_workloads
module Obs = Atp_obs
module Engine = Atp_engine.Engine

let check = Alcotest.check

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* 1/2/4/8, plus ATP_SHARDS when set (CI reruns this suite at 4). *)
let shard_counts =
  match Option.bind (Sys.getenv_opt "ATP_SHARDS") int_of_string_opt with
  | Some n when n >= 1 -> List.sort_uniq Int.compare [ 1; 2; 4; 8; n ]
  | Some _ | None -> [ 1; 2; 4; 8 ]

let with_temp f =
  let path = Filename.temp_file "atp_import" ".tmp" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Corpus files live next to this test.  Under `dune runtest` the cwd
   is _build/default/test and the dune deps glob puts them at
   traces/...; under `dune exec` from the project root they are at
   test/traces/... *)
let corpus_path name =
  List.find_opt Sys.file_exists
    [ "traces/" ^ name; "test/traces/" ^ name ]
  |> function
  | Some p -> p
  | None -> Alcotest.fail ("corpus file not found: " ^ name)

(* ------------------------------------------------------------------ *)
(* The corpus and its independent reference decoders                   *)
(* ------------------------------------------------------------------ *)

(* Reference decoders deliberately share no code with Import: they
   lean on int_of_string with an "0x" prefix and on permissive string
   splitting, so a bug in the production parser cannot hide in its
   mirror. *)

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> not (String.equal t ""))

let content_lines text =
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.filter (fun l -> not (String.equal l "" || l.[0] = '#'))

let ref_hex text =
  List.map
    (fun l ->
      match split_ws l with
      | tok :: _ ->
        let tok =
          if String.length tok > 1 && tok.[0] = '0' && (tok.[1] = 'x' || tok.[1] = 'X')
          then tok
          else "0x" ^ tok
        in
        int_of_string tok
      | [] -> assert false)
    (content_lines text)

let ref_lackey ~drop_instr text =
  List.filter_map
    (fun l ->
      if String.length l >= 2 && String.sub l 0 2 = "==" then None
      else if String.length l >= 2 && String.sub l 0 2 = "--" then None
      else
        match split_ws l with
        | kind :: rest :: _ ->
          let addr =
            match String.index_opt rest ',' with
            | Some i -> String.sub rest 0 i
            | None -> rest
          in
          if String.equal kind "I" && drop_instr then None
          else Some (int_of_string ("0x" ^ addr))
        | _ -> None)
    (content_lines text)

let ref_csv ~column ~hex ~skip_header text =
  let lines = String.split_on_char '\n' text in
  let lines = if skip_header then List.tl lines else lines in
  List.filter_map
    (fun l ->
      let l = String.trim l in
      if String.equal l "" || l.[0] = '#' then None
      else
        let f = String.trim (List.nth (String.split_on_char ',' l) (column - 1)) in
        Some (int_of_string (if hex then "0x" ^ f else f)))
    lines

let post ~page_bits ~dedup ~limit addrs =
  let vpns = List.map (fun a -> a asr page_bits) addrs in
  let vpns =
    if not dedup then vpns
    else
      List.rev
        (List.fold_left
           (fun acc v ->
             match acc with w :: _ when w = v -> acc | _ -> v :: acc)
           [] vpns)
  in
  let vpns =
    match limit with
    | None -> vpns
    | Some l -> List.filteri (fun i _ -> i < l) vpns
  in
  Array.of_list vpns

(* One row per corpus file: path, import config/format (mirroring the
   golden dune rules), and the independent reference decode. *)
let corpus =
  [
    ( "matmul.tr",
      Import.Hex,
      Import.default,
      fun text -> post ~page_bits:12 ~dedup:false ~limit:None (ref_hex text) );
    ( "stride_rw.tr",
      Import.Hex,
      Import.default,
      fun text -> post ~page_bits:12 ~dedup:false ~limit:None (ref_hex text) );
    ( "hashjoin.lackey",
      Import.Lackey,
      { Import.default with drop_instr = true },
      fun text ->
        post ~page_bits:12 ~dedup:false ~limit:None
          (ref_lackey ~drop_instr:true text) );
    ( "chase.lackey",
      Import.Lackey,
      { Import.default with limit = Some 100 },
      fun text ->
        post ~page_bits:12 ~dedup:false ~limit:(Some 100)
          (ref_lackey ~drop_instr:false text) );
    ( "sensor.csv",
      Import.Csv,
      {
        Import.default with
        csv = { Import.column = 2; radix = Import.Hexadecimal; skip_header = true };
      },
      fun text ->
        post ~page_bits:12 ~dedup:false ~limit:None
          (ref_csv ~column:2 ~hex:true ~skip_header:true text) );
    ( "decimal.csv",
      Import.Csv,
      {
        Import.default with
        dedup_consecutive = true;
        csv = { Import.column = 1; radix = Import.Decimal; skip_header = false };
      },
      fun text ->
        post ~page_bits:12 ~dedup:true ~limit:None
          (ref_csv ~column:1 ~hex:false ~skip_header:false text) );
  ]

let test_corpus_decode () =
  List.iter
    (fun (name, format, config, reference) ->
      let path = corpus_path name in
      let expect = reference (read_file path) in
      with_temp (fun dst ->
          let stats = Import.import_file ~config ~format ~src:path ~dst () in
          let got = Trace.Stream.to_array dst in
          check
            (Alcotest.array Alcotest.int)
            (path ^ ": import = reference decode")
            expect got;
          check Alcotest.int
            (path ^ ": emitted count")
            (Array.length expect) stats.Import.emitted;
          check Alcotest.bool
            (path ^ ": corpus file is non-trivial")
            true
            (Array.length expect > 50)))
    corpus

(* ------------------------------------------------------------------ *)
(* Differential replay: imported file vs reference decode              *)
(* ------------------------------------------------------------------ *)

let params = Params.derive ~p:2048 ~w:64 ()

let policies = [ "lru"; "fifo"; "2q" ]

let make_sim ~policy () =
  let p = Registry.find_exn policy in
  let x = Policy.instantiate p ~rng:(Prng.create ~seed:11 ()) ~capacity:8 () in
  let y = Policy.instantiate p ~rng:(Prng.create ~seed:13 ()) ~capacity:16 () in
  Simulation.create ~seed:7 ~params ~x ~y ()

let totals_str t = Format.asprintf "%a" Engine.pp_totals t

(* Byte-identical: the rendered cost report strings and the obs
   snapshot strings must match, not just the numeric fields. *)
let check_same_replay label (t_file, obs_file) (t_ref, obs_ref) =
  check Alcotest.string (label ^ ": cost report") (totals_str t_ref)
    (totals_str t_file);
  let cost t = Atp_obs.Cost.price ~epsilon:0.01 (Engine.ledger t) in
  check (Alcotest.float 0.) (label ^ ": cost") (cost t_ref) (cost t_file);
  check Alcotest.string (label ^ ": obs snapshot") obs_ref obs_file

let engine_config ~shards =
  { Engine.shards; epoch_len = 32; warmup = 32 }

let test_corpus_differential () =
  List.iter
    (fun (name, format, config, reference) ->
      let path = corpus_path name in
      let expect = reference (read_file path) in
      with_temp (fun dst ->
          ignore (Import.import_file ~config ~format ~src:path ~dst ());
          List.iter
            (fun policy ->
              let run ~config source =
                let reg = Obs.Registry.create () in
                let t =
                  Engine.replay
                    ~obs:(Obs.Scope.v reg)
                    ~config ~make_sim:(make_sim ~policy) source
                in
                (t, Obs.Registry.snapshot_string reg)
              in
              let one_shard =
                run ~config:(engine_config ~shards:1)
                  (Engine.source_of_array expect)
              in
              List.iter
                (fun shards ->
                  let label =
                    Printf.sprintf "%s/%s/shards=%d" path policy shards
                  in
                  let config = engine_config ~shards in
                  let from_file = run ~config (Engine.source_of_stream dst) in
                  check_same_replay (label ^ " file = array") from_file
                    (run ~config (Engine.source_of_array expect));
                  check_same_replay (label ^ " = 1 shard") from_file one_shard)
                shard_counts;
              (* One epoch, no warm-up: the exact sequential replay. *)
              let whole, _ =
                run
                  ~config:
                    {
                      Engine.shards = 1;
                      epoch_len = Array.length expect;
                      warmup = 0;
                    }
                  (Engine.source_of_stream dst)
              in
              check Alcotest.string
                (Printf.sprintf "%s/%s: one epoch = Simulation.run" path policy)
                (totals_str
                   (Engine.add_report Engine.empty_totals
                      (Simulation.run (make_sim ~policy ()) expect)
                      ~warmup_len:0))
                (totals_str whole))
            policies))
    corpus

(* ------------------------------------------------------------------ *)
(* Importer semantics                                                  *)
(* ------------------------------------------------------------------ *)

let import_string ?config ~format s =
  with_temp (fun path ->
      write_file path s;
      let refs = ref [] in
      let stats = Import.import ?config ~format path (fun v -> refs := v :: !refs) in
      (stats, List.rev !refs))

let parse_error_of ?config ~format s =
  with_temp (fun path ->
      write_file path s;
      match Import.import ?config ~format path (fun _ -> ()) with
      | _ -> None
      | exception Trace.Parse_error { what; _ } -> Some what)

let test_importer_semantics () =
  (* page-bits shift, 0x tolerance, comment and column skipping *)
  let stats, refs =
    import_string ~format:Import.Hex
      "# c\n1000\n0x1fff\n2000 R 8\n\n2abc W 4\n"
  in
  check (Alcotest.list Alcotest.int) "hex vpns" [ 1; 1; 2; 2 ] refs;
  check Alcotest.int "hex parsed" 4 stats.Import.parsed;
  (* dedup + limit *)
  let _, refs =
    import_string
      ~config:{ Import.default with dedup_consecutive = true; limit = Some 2 }
      ~format:Import.Hex "1000\n1fff\n2000\n3000\n"
  in
  check (Alcotest.list Alcotest.int) "dedup+limit" [ 1; 2 ] refs;
  (* page_bits other than 12 *)
  let _, refs =
    import_string
      ~config:{ Import.default with page_bits = 16 }
      ~format:Import.Hex "20000\n"
  in
  check (Alcotest.list Alcotest.int) "page_bits=16" [ 2 ] refs;
  (* lackey record kinds and instruction filtering *)
  let _, refs =
    import_string ~format:Import.Lackey
      "==1== banner\nI  1000,4\n L 2000,8\n S 3000,8\nM 4000,4\n==1==\n"
  in
  check (Alcotest.list Alcotest.int) "lackey all" [ 1; 2; 3; 4 ] refs;
  let _, refs =
    import_string
      ~config:{ Import.default with drop_instr = true }
      ~format:Import.Lackey "I  1000,4\n L 2000,8\n"
  in
  check (Alcotest.list Alcotest.int) "lackey --no-instr" [ 2 ] refs;
  (* CSV column / radix / header *)
  let _, refs =
    import_string
      ~config:
        {
          Import.default with
          csv = { Import.column = 2; radix = Import.Decimal; skip_header = true };
        }
      ~format:Import.Csv "a,b\nx,8192,y\nz, 12288 ,w\n"
  in
  check (Alcotest.list Alcotest.int) "csv dec col2" [ 2; 3 ] refs;
  (* CRLF and BOM are tolerated *)
  let _, refs =
    import_string ~format:Import.Hex "\xef\xbb\xbf1000\r\n2000\r\n"
  in
  check (Alcotest.list Alcotest.int) "bom+crlf" [ 1; 2 ] refs

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_importer_errors () =
  let has_line3 = function
    | Some what -> contains ~sub:"line 3" what
    | None -> false
  in
  check Alcotest.bool "hex error carries line number" true
    (has_line3 (parse_error_of ~format:Import.Hex "1000\n2000\nzz zz\n"));
  check Alcotest.bool "lackey bad record" true
    (has_line3
       (parse_error_of ~format:Import.Lackey " L 1000,8\n S 2000,8\nQ 3,4\n"));
  check Alcotest.bool "lackey bad size" true
    (Option.is_some (parse_error_of ~format:Import.Lackey " L 1000,banana\n"));
  check Alcotest.bool "csv missing column" true
    (Option.is_some
       (parse_error_of
          ~config:
            {
              Import.default with
              csv =
                { Import.column = 3; radix = Import.Hexadecimal; skip_header = false };
            }
          ~format:Import.Csv "1000,2000\n"));
  check Alcotest.bool "decimal radix rejects hex letters" true
    (Option.is_some
       (parse_error_of
          ~config:
            {
              Import.default with
              csv =
                { Import.column = 1; radix = Import.Decimal; skip_header = false };
            }
          ~format:Import.Csv "1abc\n"));
  check Alcotest.bool "overflowing address" true
    (Option.is_some
       (parse_error_of ~format:Import.Hex "fffffffffffffffff\n"));
  check Alcotest.bool "overlong line" true
    (Option.is_some
       (parse_error_of ~format:Import.Hex
          (String.make (Import.max_line_bytes + 8) 'a')));
  (* bad config is Invalid_argument, not a parse error *)
  check Alcotest.bool "bad page_bits" true
    (with_temp (fun path ->
         write_file path "1000\n";
         match
           Import.import
             ~config:{ Import.default with page_bits = 63 }
             ~format:Import.Hex path
             (fun _ -> ())
         with
         | exception Invalid_argument _ -> true
         | _ -> false))

let test_import_file_cleanup () =
  (* a failed import must not leave a half-written ATPS file behind *)
  with_temp (fun src ->
      write_file src "1000\nzz zz\n";
      let dst = Filename.temp_file "atp_import" ".atps" in
      Sys.remove dst;
      (match Import.import_file ~format:Import.Hex ~src ~dst () with
      | _ -> Alcotest.fail "expected Parse_error"
      | exception Trace.Parse_error _ -> ());
      check Alcotest.bool "partial dst removed" false (Sys.file_exists dst))

(* ------------------------------------------------------------------ *)
(* Sniffing                                                            *)
(* ------------------------------------------------------------------ *)

let format_testable =
  Alcotest.testable Trace.pp_format (fun a b ->
      match (a, b) with
      | Trace.Text, Trace.Text
      | Trace.Binary, Trace.Binary
      | Trace.Streamed, Trace.Streamed
      | Trace.Hex, Trace.Hex ->
        true
      | _ -> false)

let test_sniffing () =
  let fmt s =
    with_temp (fun path ->
        write_file path s;
        Trace.format_of_file path)
  in
  (* the regression this PR fixes: hex content must not sniff as text *)
  check format_testable ".tr hex file" Trace.Hex (fmt "0041f7a0\n0041f7a4\n");
  check format_testable "0x prefix" Trace.Hex (fmt "0x12345678\n");
  check format_testable "R/W columns" Trace.Hex (fmt "123 R 4\n456 W 8\n");
  check format_testable "decimal stays text" Trace.Text (fmt "12\n34\n56\n");
  check format_testable "junk stays text" Trace.Text (fmt "12\nnope\n");
  check format_testable "comments skipped" Trace.Hex (fmt "# hdr\ncafebabe\n");
  (* Trace.load refuses hex with a pointer at the importer *)
  check Alcotest.bool "load refuses hex" true
    (with_temp (fun path ->
         write_file path "0041f7a0\ndeadbeef\n";
         match Trace.load path with
         | exception Trace.Parse_error { what; _ } ->
           contains ~sub:"trace import" what
         | _ -> false));
  (* Import.sniff refines the external formats *)
  let sniff s =
    with_temp (fun path ->
        write_file path s;
        Import.sniff path)
  in
  check Alcotest.bool "sniff lackey" true
    (match sniff "==1== x\nI  1000,4\n L 2000,8\n" with
    | `Import Import.Lackey -> true
    | _ -> false);
  check Alcotest.bool "sniff csv" true
    (match sniff "1000,R\n2000,W\n" with
    | `Import Import.Csv -> true
    | _ -> false);
  check Alcotest.bool "sniff hex" true
    (match sniff "0041f7a0\n" with Import.(`Import Hex) -> true | _ -> false);
  check Alcotest.bool "sniff native streamed" true
    (with_temp (fun path ->
         Trace.Stream.pack_array path [| 1; 2; 3 |];
         match Import.sniff path with
         | `Native Trace.Streamed -> true
         | _ -> false));
  (* corpus files sniff to their import formats *)
  List.iter
    (fun (name, format, _, _) ->
      check Alcotest.bool
        (name ^ " sniffs correctly")
        true
        (match (Import.sniff (corpus_path name), format) with
        | `Import Import.Hex, Import.Hex
        | `Import Import.Lackey, Import.Lackey
        | `Import Import.Csv, Import.Csv ->
          true
        | _ -> false))
    corpus

(* ------------------------------------------------------------------ *)
(* Fuzzing: mutated inputs never crash, hang, or miscount              *)
(* ------------------------------------------------------------------ *)

(* A tiny deterministic byte source for mutation payloads (the qcheck
   generator supplies the seeds, so shrinking stays meaningful). *)
let garbage seed len =
  String.init len (fun i ->
      Char.chr ((((seed + i) * 1103515245) + 12345) lsr 8 land 0xFF))

let clamp lo hi v = max lo (min hi v)

let mutate ~mut ~a ~b base =
  let n = String.length base in
  match mut mod 10 with
  | 0 -> ""
  | 1 -> if n = 0 then base else String.sub base 0 (a mod n) (* truncate *)
  | 2 ->
    if n = 0 then garbage a 8
    else
      let i = a mod n in
      String.sub base 0 i ^ garbage b (1 + (b mod 24)) ^ String.sub base i (n - i)
  | 3 ->
    if n = 0 then base
    else
      let i = a mod n in
      let len = clamp 0 (n - i) (b mod 32) in
      String.sub base 0 i ^ String.sub base (i + len) (n - i - len)
  | 4 ->
    if n = 0 then base
    else
      let i = a mod n in
      String.sub base 0 i
      ^ String.make 1 (Char.chr (b land 0xFF))
      ^ String.sub base (i + 1) (n - i - 1)
  | 5 ->
    (* CRLF-ify *)
    String.concat "\r\n" (String.split_on_char '\n' base)
  | 6 -> "\xef\xbb\xbf" ^ base
  | 7 ->
    (* splice in an overlong line *)
    String.sub base 0 (if n = 0 then 0 else a mod n)
    ^ "\n"
    ^ String.make (Import.max_line_bytes + 2) 'a'
    ^ "\n" ^ base
  | 8 ->
    if n = 0 then base
    else
      let i = a mod n in
      let len = clamp 0 (n - i) (b mod 64) in
      base ^ String.sub base i len (* duplicate a span *)
  | _ -> base (* identity: must import with the expected count *)

let render_hex addrs =
  String.concat ""
    (List.mapi
       (fun i a ->
         match i mod 4 with
         | 0 -> Printf.sprintf "%x\n" a
         | 1 -> Printf.sprintf "0x%x R 8\n" a
         | 2 -> Printf.sprintf "%08x W 4\n" a
         | _ -> Printf.sprintf "# note\n%x\n" a)
       addrs)

let render_lackey addrs =
  "==99== Lackey\n"
  ^ String.concat ""
      (List.mapi
         (fun i a ->
           match i mod 4 with
           | 0 -> Printf.sprintf "I  %x,4\n" a
           | 1 -> Printf.sprintf " L %x,8\n" a
           | 2 -> Printf.sprintf " S %x,8\n" a
           | _ -> Printf.sprintf " M %x,4\n" a)
         addrs)
  ^ "==99==\n"

let render_csv addrs =
  "ts,addr,op\n"
  ^ String.concat ""
      (List.mapi (fun i a -> Printf.sprintf "%d,%x,%s\n" i a
                    (if i mod 2 = 0 then "rd" else "wr"))
         addrs)

let csv_fuzz_config =
  {
    Import.default with
    csv = { Import.column = 2; radix = Import.Hexadecimal; skip_header = true };
  }

(* Fuzz one importer: any mutation either imports or raises
   Trace.Parse_error; the identity mutation must import exactly
   [List.length addrs] references. *)
let fuzz_importer ~name ~format ~config render =
  QCheck.Test.make ~name ~count:250
    QCheck.(
      quad
        (list_of_size Gen.(int_range 0 40) (int_bound 0xFFFFFF))
        small_nat small_nat small_nat)
    (fun (addrs, mut, a, b) ->
      let base = render addrs in
      let data = mutate ~mut ~a ~b base in
      with_temp (fun path ->
          write_file path data;
          match Import.import ~config ~format path (fun _ -> ()) with
          | stats ->
            if mut mod 10 = 9 then stats.Import.emitted = List.length addrs
            else true
          | exception Trace.Parse_error _ -> true))

let fuzz_hex =
  fuzz_importer ~name:"fuzz: hex importer" ~format:Import.Hex
    ~config:Import.default render_hex

let fuzz_lackey =
  fuzz_importer ~name:"fuzz: lackey importer" ~format:Import.Lackey
    ~config:Import.default render_lackey

let fuzz_csv =
  fuzz_importer ~name:"fuzz: csv importer" ~format:Import.Csv
    ~config:csv_fuzz_config render_csv

(* The same battery pointed at the ATPS reader: mutated packed files
   must decode fully or die with Parse_error — and a corrupt header
   must never provoke an allocation larger than the file itself. *)
let fuzz_atps =
  QCheck.Test.make ~name:"fuzz: ATPS reader" ~count:250
    QCheck.(
      quad
        (list_of_size Gen.(int_range 0 60) (int_bound 1_000_000))
        small_nat small_nat small_nat)
    (fun (pages, mut, a, b) ->
      let trace = Array.of_list pages in
      with_temp (fun packed ->
          Trace.Stream.pack_array ~chunk_size:16 packed trace;
          let data = mutate ~mut ~a ~b (read_file packed) in
          with_temp (fun path ->
              write_file path data;
              match Trace.Stream.to_array path with
              | back ->
                if mut mod 10 = 9 then Array.length back = Array.length trace
                else true
              | exception Trace.Parse_error _ -> true)))

(* And at the ATPT binary reader, whose declared count is now checked
   against the file size. *)
let fuzz_atpt =
  QCheck.Test.make ~name:"fuzz: ATPT reader" ~count:250
    QCheck.(
      quad
        (list_of_size Gen.(int_range 0 60) (int_bound 1_000_000))
        small_nat small_nat small_nat)
    (fun (pages, mut, a, b) ->
      let trace = Array.of_list pages in
      with_temp (fun packed ->
          Trace.save_binary packed trace;
          let data = mutate ~mut ~a ~b (read_file packed) in
          with_temp (fun path ->
              write_file path data;
              match Trace.load path with
              | back ->
                if mut mod 10 = 9 then Array.length back = Array.length trace
                else true
              | exception Trace.Parse_error _ -> true)))

(* ------------------------------------------------------------------ *)
(* Streaming proof: O(chunk) peak memory on a ~1M-ref import           *)
(* ------------------------------------------------------------------ *)

let test_streaming_budget () =
  with_temp (fun src ->
      let n = 1_000_000 in
      let oc = open_out_bin src in
      let state = ref 123456789 in
      for _ = 1 to n do
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        Printf.fprintf oc "%x R 8\n" !state
      done;
      close_out oc;
      with_temp (fun dst ->
          Gc.compact ();
          let top0 = (Gc.stat ()).Gc.top_heap_words in
          let peak_live = ref 0 in
          let alarm =
            Gc.create_alarm (fun () ->
                let live = (Gc.quick_stat ()).Gc.heap_words in
                if live > !peak_live then peak_live := live)
          in
          let stats =
            Fun.protect
              ~finally:(fun () -> Gc.delete_alarm alarm)
              (fun () ->
                Import.import_file ~chunk_size:4096 ~format:Import.Hex ~src ~dst
                  ())
          in
          let top1 = (Gc.stat ()).Gc.top_heap_words in
          check Alcotest.int "all refs imported" n stats.Import.emitted;
          (* Materializing would cost >= n words (8 MB); the streaming
             path's heap growth must stay two orders of magnitude
             below that — O(chunk + line), not O(trace). *)
          let budget = 500_000 in
          let grew = top1 - top0 in
          check Alcotest.bool
            (Printf.sprintf "heap growth %d words within budget %d" grew budget)
            true (grew <= budget);
          check Alcotest.bool
            (Printf.sprintf "peak live %d words within budget" !peak_live)
            true
            (!peak_live = 0 (* no major collection ran: nothing accumulated *)
            || !peak_live - top0 <= budget);
          (* and the emitted stream is intact *)
          let h = Trace.Stream.with_reader dst Trace.Stream.header in
          check Alcotest.int "stream length" n h.Trace.Stream.length))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "import"
    [
      ( "corpus",
        [
          Alcotest.test_case "import = independent reference decode" `Quick
            test_corpus_decode;
          Alcotest.test_case "differential replay (1/2/4/8 shards)" `Quick
            test_corpus_differential;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "importer semantics" `Quick test_importer_semantics;
          Alcotest.test_case "typed errors with line numbers" `Quick
            test_importer_errors;
          Alcotest.test_case "failed import removes partial output" `Quick
            test_import_file_cleanup;
          Alcotest.test_case "format sniffing" `Quick test_sniffing;
        ] );
      ( "fuzz",
        qsuite [ fuzz_hex; fuzz_lackey; fuzz_csv; fuzz_atps; fuzz_atpt ] );
      ( "streaming",
        [
          Alcotest.test_case "1M-ref import stays O(chunk)" `Quick
            test_streaming_budget;
        ] );
    ]
