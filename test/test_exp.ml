(* The experiment-runner subsystem (lib/exp) and the failure-semantics
   fixes that ride with it: per-task fault isolation, backtrace
   preservation through Parallel, bounded retry, checkpoint/resume
   with byte-identical streams, schema validation, the Json parser,
   empty-summary printing, and the figure-sweep shape line on
   degenerate sweeps. *)

open Atp_util
module Json = Atp_obs.Json
module Spec = Atp_exp.Spec
module Runner = Atp_exp.Runner
module Outcome = Atp_exp.Outcome
module Schema = Atp_exp.Schema
module Checkpoint = Atp_exp.Checkpoint
module Report = Atp_exp.Report

let check = Alcotest.check

let contains s sub =
  let n = String.length sub and len = String.length s in
  let rec go i =
    i + n <= len && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A deterministic, race-free clock: each call returns the next
   integer second.  Makes wall_s — and with it whole BENCH streams —
   reproducible. *)
let ticking_clock () =
  let c = Atomic.make 0 in
  fun () -> float_of_int (Atomic.fetch_and_add c 1 + 1)

(* A scratch directory name (the runner creates it on demand, which
   also exercises ensure_parent_dir). *)
let scratch_dir () =
  let f = Filename.temp_file "atp_exp" "" in
  Sys.remove f;
  f

(* --- Parallel failure semantics ------------------------------------ *)

(* A raise site a few frames deep, so the backtrace has something to
   lose. *)
let rec deep n : int = if n = 0 then failwith "deep-boom" else 1 + deep (n - 1)

let work x = if x = 0 then deep 3 else x * 2

let test_map_results_isolation () =
  let results = Parallel.map_results ~domains:2 work [ 1; 0; 3; 4 ] in
  match results with
  | [ Ok 2; Error (e, _); Ok 6; Ok 8 ] ->
    check Alcotest.bool "failure text" true
      (contains (Printexc.to_string e) "deep-boom")
  | _ -> Alcotest.fail "expected exactly one Error among Oks, in input order"

let test_map_results_all_ok () =
  check
    Alcotest.(list int)
    "all ok" [ 2; 4; 6 ]
    (List.filter_map
       (function Ok v -> Some v | Error _ -> None)
       (Parallel.map_results (fun x -> 2 * x) [ 1; 2; 3 ]))

(* Backtrace preservation is only observable when the build records
   backtraces with locations; calibrate with a direct raise and only
   then require the parallel path to preserve the same information. *)
let test_map_backtrace_preserved () =
  Printexc.record_backtrace true;
  let control =
    match work 0 with
    | _ -> ""
    | exception _ -> Printexc.get_backtrace ()
  in
  if contains control "test_exp" then begin
    (match Parallel.map ~domains:2 work [ 0; 1 ] with
    | _ -> Alcotest.fail "map should re-raise"
    | exception Failure _ ->
      check Alcotest.bool "map re-raise keeps the raise site" true
        (contains (Printexc.get_backtrace ()) "test_exp"));
    match Parallel.map_results ~domains:2 work [ 0 ] with
    | [ Error (_, bt) ] ->
      check Alcotest.bool "map_results carries the raise site" true
        (contains (Printexc.raw_backtrace_to_string bt) "test_exp")
    | _ -> Alcotest.fail "expected one Error"
  end

(* --- Stats.Summary empty case -------------------------------------- *)

let test_empty_summary () =
  let s = Stats.Summary.create () in
  let printed = Format.asprintf "%a" Stats.Summary.pp s in
  check Alcotest.string "empty summary prints n=0 alone" "n=0" printed;
  check Alcotest.bool "no inf leaks" false (contains printed "inf");
  (match Stats.Summary.min s with
  | _ -> Alcotest.fail "min on empty must raise"
  | exception Invalid_argument _ -> ());
  (match Stats.Summary.max s with
  | _ -> Alcotest.fail "max on empty must raise"
  | exception Invalid_argument _ -> ());
  Stats.Summary.add s 2.0;
  check (Alcotest.float 0.0) "min after add" 2.0 (Stats.Summary.min s);
  check Alcotest.bool "non-empty pp has min" true
    (contains (Format.asprintf "%a" Stats.Summary.pp s) "min=")

let test_empty_histogram_snapshot () =
  let reg = Atp_obs.Registry.create () in
  ignore (Atp_obs.Registry.histogram reg "empty.h");
  let snap = Atp_obs.Registry.snapshot_string reg in
  check Alcotest.bool "snapshot mentions the histogram" true
    (contains snap "empty.h");
  check Alcotest.bool "empty histogram snapshot has no inf" false
    (contains snap "inf")

(* --- Json parser ---------------------------------------------------- *)

let test_json_parse_roundtrip () =
  let roundtrip s =
    match Json.of_string s with
    | Ok v -> Json.to_string v
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  let id s = check Alcotest.string s s (roundtrip s) in
  id {|{"a":1,"b":[true,false,null,"x"],"c":2.5,"d":{}}|};
  id {|[-3,0.125,"\"\\\n"]|};
  id "true";
  check Alcotest.string "whitespace tolerated" {|{"a":[1,2]}|}
    (roundtrip " {\t\"a\" : [ 1 , 2 ] }\n");
  check Alcotest.string "exponent becomes float" "1000.0" (roundtrip "1e3");
  check Alcotest.string "unicode escape" {|"aA"|} (roundtrip {|"aA"|});
  match Json.of_string (Json.to_string (Json.Float 0.1)) with
  | Ok (Json.Float f) -> check (Alcotest.float 0.0) "float exact" 0.1 f
  | _ -> Alcotest.fail "float roundtrip"

let test_json_parse_errors () =
  let rejects s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "should reject %s" s
  in
  rejects "";
  rejects "{";
  rejects "[1,2,";
  rejects {|{"a" 1}|};
  rejects "1 x";
  rejects "nul";
  rejects {|"unterminated|}

(* --- Schema validation ---------------------------------------------- *)

let ok_line ~task =
  Json.to_string
    (Schema.ok_row ~experiment:"t" ~task ~attempts:1 ~wall_s:1.0
       ~data:(Json.Obj [ ("v", Json.Int 1) ])
       ~obs:(Json.Obj []))

let meta_line ~tasks =
  Json.to_string (Schema.meta_line ~experiment:"t" ~params:[] ~tasks)

let test_schema_validate () =
  (match Schema.validate_lines [ meta_line ~tasks:2; ok_line ~task:"a";
                                 ok_line ~task:"b" ] with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "expected 2 rows, got %d" n
  | Error e -> Alcotest.fail e);
  let rejects name lines =
    match Schema.validate_lines lines with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "should reject %s" name
  in
  rejects "row count mismatch" [ meta_line ~tasks:2; ok_line ~task:"a" ];
  rejects "duplicate task"
    [ meta_line ~tasks:2; ok_line ~task:"a"; ok_line ~task:"a" ];
  rejects "missing meta" [ ok_line ~task:"a" ];
  rejects "garbage line" [ meta_line ~tasks:1; "{not json" ]

(* --- Spec validation ------------------------------------------------- *)

let test_spec_validation () =
  let t key = Spec.task ~key (fun _ -> Json.Obj []) in
  (match Spec.v ~name:"bad key" [ t "a" ] with
  | _ -> Alcotest.fail "space in experiment name must be rejected"
  | exception Invalid_argument _ -> ());
  (match Spec.v ~name:"dup" [ t "a"; t "a" ] with
  | _ -> Alcotest.fail "duplicate task keys must be rejected"
  | exception Invalid_argument _ -> ());
  match Spec.task ~key:"bad key" (fun _ -> Json.Obj []) with
  | _ -> Alcotest.fail "space in task key must be rejected"
  | exception Invalid_argument _ -> ()

(* --- Runner: fault isolation ----------------------------------------- *)

let test_runner_error_isolation () =
  let dir = scratch_dir () in
  let json = Filename.concat dir "BENCH_iso.json" in
  let ckpt = Filename.concat dir "iso.ckpt" in
  let tasks =
    [
      Spec.task ~key:"a" (fun _ -> Json.Obj [ ("v", Json.Int 1) ]);
      Spec.task ~key:"bad" (fun _ -> deep 2 |> ignore; Json.Obj []);
      Spec.task ~key:"c" (fun _ -> Json.Obj [ ("v", Json.Int 3) ]);
    ]
  in
  let config =
    {
      Runner.default_config with
      domains = Some 2;
      json_path = Some json;
      checkpoint_path = Some ckpt;
      clock = Some (ticking_clock ());
    }
  in
  let outcomes = Runner.run ~config (Spec.v ~name:"iso" tasks) in
  check
    Alcotest.(list string)
    "spec order" [ "a"; "bad"; "c" ]
    (List.map (fun o -> o.Outcome.key) outcomes);
  check
    Alcotest.(list bool)
    "siblings of a failure still report" [ true; false; true ]
    (List.map Outcome.ok outcomes);
  (match Outcome.error (List.nth outcomes 1) with
  | Some (e, _) -> check Alcotest.bool "exn text" true (contains e "deep-boom")
  | None -> Alcotest.fail "failed task must expose its error");
  (* The stream carries all three rows — two ok, one structured error —
     and validates. *)
  (match Schema.validate_file json with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "expected 3 rows, got %d" n
  | Error e -> Alcotest.fail e);
  let stream = read_file json in
  check Alcotest.bool "error row in stream" true
    (contains stream {|"status":"error"|});
  check Alcotest.bool "backtrace recorded" true
    (contains stream {|"backtrace":|});
  (* A failed task keeps the checkpoint so --resume retries it. *)
  check Alcotest.bool "checkpoint kept on failure" true (Sys.file_exists ckpt);
  Sys.remove json;
  Sys.remove ckpt;
  Sys.rmdir dir

(* --- Runner: retry --------------------------------------------------- *)

let test_runner_retry_transient () =
  let calls = Atomic.make 0 in
  let task =
    Spec.task ~key:"flaky" (fun _ ->
        let n = Atomic.fetch_and_add calls 1 in
        if n < 2 then failwith "transient" else Json.Obj [ ("n", Json.Int n) ])
  in
  let config =
    {
      Runner.default_config with
      retries = 2;
      domains = Some 1;
      clock = Some (ticking_clock ());
    }
  in
  match Runner.run ~config (Spec.v ~name:"retry" [ task ]) with
  | [ o ] ->
    check Alcotest.bool "eventually ok" true (Outcome.ok o);
    check Alcotest.int "attempts recorded" 3 (Outcome.attempts o);
    check Alcotest.int "task body ran three times" 3 (Atomic.get calls)
  | _ -> Alcotest.fail "one outcome expected"

let test_runner_retry_respects_retryable () =
  let calls = Atomic.make 0 in
  let task =
    Spec.task ~key:"fatal" (fun _ ->
        Atomic.incr calls;
        invalid_arg "permanent")
  in
  let config =
    {
      Runner.default_config with
      retries = 5;
      retryable = (function Failure _ -> true | _ -> false);
      domains = Some 1;
    }
  in
  match Runner.run ~config (Spec.v ~name:"fatal" [ task ]) with
  | [ o ] ->
    check Alcotest.bool "error outcome" false (Outcome.ok o);
    check Alcotest.int "no retry of non-retryable" 1 (Atomic.get calls);
    check Alcotest.int "attempts" 1 (Outcome.attempts o)
  | _ -> Alcotest.fail "one outcome expected"

(* --- Runner: checkpoint / resume ------------------------------------- *)

(* The acceptance scenario: a run dies with work left (stood in for
   here by a failing task — kill and crash leave the same on-disk
   state), a second run resumes, skips what finished, and the final
   stream is byte-identical to one from an uninterrupted run. *)
let test_runner_resume_byte_identical () =
  let dir = scratch_dir () in
  let json = Filename.concat dir "BENCH_r.json" in
  let ckpt = Filename.concat dir "r.ckpt" in
  let runs_a = Atomic.make 0 and runs_c = Atomic.make 0 in
  let tasks ~b_fails =
    [
      Spec.task ~key:"a" (fun _ ->
          Atomic.incr runs_a;
          Json.Obj [ ("v", Json.Int 1) ]);
      Spec.task ~key:"b" (fun _ ->
          if b_fails then failwith "interrupted" else Json.Obj [ ("v", Json.Int 2) ]);
      Spec.task ~key:"c" (fun _ ->
          Atomic.incr runs_c;
          Json.Obj [ ("v", Json.Int 3) ]);
    ]
  in
  let config ?(resume = false) () =
    {
      Runner.default_config with
      domains = Some 1;
      json_path = Some json;
      checkpoint_path = Some ckpt;
      resume;
      clock = Some (ticking_clock ());
    }
  in
  (* Reference: the uninterrupted run. *)
  ignore (Runner.run ~config:(config ()) (Spec.v ~name:"r" (tasks ~b_fails:false)));
  let reference = read_file json in
  check Alcotest.bool "fully-ok run drops its checkpoint" false
    (Sys.file_exists ckpt);
  (* The interrupted run: a and c complete and checkpoint, b does not. *)
  ignore (Runner.run ~config:(config ()) (Spec.v ~name:"r" (tasks ~b_fails:true)));
  check Alcotest.bool "interrupted run keeps its checkpoint" true
    (Sys.file_exists ckpt);
  check Alcotest.int "a ran in both runs so far" 2 (Atomic.get runs_a);
  (* Resume: a and c replay from the checkpoint, only b executes. *)
  let outcomes =
    Runner.run ~config:(config ~resume:true ())
      (Spec.v ~name:"r" (tasks ~b_fails:false))
  in
  check Alcotest.int "a skipped on resume" 2 (Atomic.get runs_a);
  check Alcotest.int "c skipped on resume" 2 (Atomic.get runs_c);
  check
    Alcotest.(list bool)
    "replay flags" [ true; false; true ]
    (List.map (fun o -> o.Outcome.replayed) outcomes);
  check Alcotest.string "resumed stream is byte-identical" reference
    (read_file json);
  check Alcotest.bool "completed resume drops the checkpoint" false
    (Sys.file_exists ckpt);
  Sys.remove json;
  Sys.rmdir dir

(* A checkpoint a kill left mid-append: task a's row, then a torn
   line. *)
let torn_checkpoint () =
  let line =
    Json.to_string
      (Schema.ok_row ~experiment:"t" ~task:"a" ~attempts:1 ~wall_s:1.0
         ~data:(Json.Obj [ ("v", Json.Int 1) ])
         ~obs:(Json.Obj []))
  in
  let path = Filename.temp_file "atp_ckpt" ".ckpt" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (line ^ "\n");
      output_string oc {|{"schema":"atp.bench/1","kind":"row","task":"b","trunc|});
  (path, line)

let resume_config path =
  {
    Runner.default_config with
    domains = Some 1;
    checkpoint_path = Some path;
    resume = true;
    clock = Some (ticking_clock ());
  }

let test_checkpoint_torn_line () =
  let path, line = torn_checkpoint () in
  let loaded = Checkpoint.load path in
  check
    Alcotest.(list string)
    "only the well-formed row survives" [ "a" ] (List.map fst loaded);
  check Alcotest.string "stored bytes are verbatim" line
    (List.assoc "a" loaded);
  (* Resuming over it replays a and re-runs the torn b. *)
  let runs_b = Atomic.make 0 in
  let tasks =
    [
      Spec.task ~key:"a" (fun _ -> Alcotest.fail "a must not re-run");
      Spec.task ~key:"b" (fun _ ->
          Atomic.incr runs_b;
          Json.Obj [ ("v", Json.Int 2) ]);
    ]
  in
  let outcomes = Runner.run ~config:(resume_config path) (Spec.v ~name:"t" tasks) in
  check Alcotest.int "torn task re-ran" 1 (Atomic.get runs_b);
  check
    Alcotest.(list bool)
    "replay flags" [ true; false ]
    (List.map (fun o -> o.Outcome.replayed) outcomes);
  check Alcotest.bool "all ok" true (List.for_all Outcome.ok outcomes)

(* The row a resumed run completes first must not land on the torn
   line, or the next resume cannot parse it and runs its task again.
   Task c fails, so the checkpoint outlives the run. *)
let test_checkpoint_resume_after_torn_line () =
  let path, _ = torn_checkpoint () in
  let tasks =
    [
      Spec.task ~key:"a" (fun _ -> Alcotest.fail "a must not re-run");
      Spec.task ~key:"b" (fun _ -> Json.Obj [ ("v", Json.Int 2) ]);
      Spec.task ~key:"c" (fun _ -> failwith "interrupted");
    ]
  in
  ignore (Runner.run ~config:(resume_config path) (Spec.v ~name:"t" tasks));
  check
    Alcotest.(list string)
    "old and new rows both load" [ "a"; "b" ]
    (List.map fst (Checkpoint.load path));
  Sys.remove path

(* --- Report ----------------------------------------------------------- *)

let test_shape_line_degenerate () =
  check Alcotest.bool "empty sweep reports, not raises" true
    (contains (Report.shape_line []) "no rows");
  let single = Report.shape_line [ ("h=4", 100, 50) ] in
  check Alcotest.bool "singleton names its row" true (contains single "h=4");
  check Alcotest.bool "singleton is a single-row summary" true
    (contains single "single row");
  let full =
    Report.shape_line [ ("h=1", 10, 1000); ("h=4", 40, 400); ("h=16", 160, 10) ]
  in
  check Alcotest.bool "trend uses actual first key" true (contains full "h=1");
  check Alcotest.bool "trend uses actual last key" true (contains full "h=16");
  check Alcotest.bool "IO ratio" true (contains full "x16")

let test_report_table_failure_row () =
  let dir = scratch_dir () in
  let json = Filename.concat dir "BENCH_tbl.json" in
  let tasks =
    [
      Spec.task ~key:"good" (fun _ -> Json.Obj [ ("v", Json.Int 7) ]);
      Spec.task ~key:"bad" (fun _ -> failwith "nope");
    ]
  in
  let config =
    { Runner.default_config with domains = Some 1; json_path = Some json }
  in
  let outcomes = Runner.run ~config (Spec.v ~name:"tbl" tasks) in
  let buf_path = Filename.concat dir "table.txt" in
  Out_channel.with_open_text buf_path (fun oc ->
      Report.print_table ~out:oc
        ~columns:[ Report.col_int ~field:"v" "v" ]
        outcomes);
  let table = read_file buf_path in
  check Alcotest.bool "value rendered" true (contains table "7");
  check Alcotest.bool "failure rendered in place" true
    (contains table "FAILED");
  check Alcotest.bool "failure note lists the key" true
    (contains table "1/2 tasks failed: bad");
  Sys.remove json;
  Sys.remove buf_path;
  Sys.rmdir dir

(* --- Outcome accessors ------------------------------------------------ *)

let test_outcome_accessors () =
  let tasks =
    [
      Spec.task ~key:"k" (fun reg ->
          Atp_obs.Counter.add (Atp_obs.Registry.counter reg "work.items") 5;
          Json.Obj [ ("n", Json.Int 9); ("f", Json.Float 2.5) ]);
    ]
  in
  let config =
    {
      Runner.default_config with
      domains = Some 1;
      clock = Some (ticking_clock ());
    }
  in
  match Runner.run ~config (Spec.v ~name:"acc" tasks) with
  | [ o ] ->
    check Alcotest.int "int_field" 9 (Option.get (Outcome.int_field "n" o));
    check (Alcotest.float 0.0) "float_field" 2.5
      (Option.get (Outcome.float_field "f" o));
    check (Alcotest.float 0.0) "wall_s from injected clock" 1.0
      (Outcome.wall_s o);
    (match Option.bind (Outcome.obs o) (Json.member "counters") with
    | Some (Json.Obj kvs) ->
      check Alcotest.bool "private registry snapshot captured" true
        (List.mem_assoc "work.items" kvs)
    | _ -> Alcotest.fail "obs counters missing")
  | _ -> Alcotest.fail "one outcome expected"

(* --------------------------------------------------------------------- *)

let () =
  Alcotest.run "exp"
    [
      ( "parallel",
        [
          Alcotest.test_case "map_results isolates failures" `Quick
            test_map_results_isolation;
          Alcotest.test_case "map_results all ok" `Quick test_map_results_all_ok;
          Alcotest.test_case "backtraces preserved" `Quick
            test_map_backtrace_preserved;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty summary" `Quick test_empty_summary;
          Alcotest.test_case "empty histogram snapshot" `Quick
            test_empty_histogram_snapshot;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "schema",
        [
          Alcotest.test_case "validate streams" `Quick test_schema_validate;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
        ] );
      ( "runner",
        [
          Alcotest.test_case "error isolation" `Quick
            test_runner_error_isolation;
          Alcotest.test_case "retry transient" `Quick
            test_runner_retry_transient;
          Alcotest.test_case "retryable filter" `Quick
            test_runner_retry_respects_retryable;
          Alcotest.test_case "resume byte-identical" `Quick
            test_runner_resume_byte_identical;
          Alcotest.test_case "torn checkpoint line" `Quick
            test_checkpoint_torn_line;
          Alcotest.test_case "resume after a torn line keeps its rows" `Quick
            test_checkpoint_resume_after_torn_line;
          Alcotest.test_case "outcome accessors" `Quick test_outcome_accessors;
        ] );
      ( "report",
        [
          Alcotest.test_case "shape line degenerate sweeps" `Quick
            test_shape_line_degenerate;
          Alcotest.test_case "table renders failures" `Quick
            test_report_table_failure_row;
        ] );
    ]
