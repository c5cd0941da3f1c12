(* The atp benchmark: see README.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints the metrics by name, then one JSON line
   {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
   end-to-end metrics of a timed run, with --trace 1 the per-layer
   metrics of a traced run.  Without --workload every workload runs;
   without --trace both kinds of run.  Exits 1 if any run failed. *)

open Atpbench

let atsim =
  List.fold_left Filename.concat "_build" [ "default"; "bin"; "atsim.exe" ]

let dir = "_bench"

(* Every run must end well within 3 minutes: timed runs stop starting
   after [budget_s], and a longer measuring time is refused. *)
let budget_s = 150.

let max_seconds = 60.

(* The end-to-end metrics the JSON line carries; the rest are printed. *)
let end_to_end = [ "refs_per_s"; "peak_rss_mb"; "setup_s" ]

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_metric (m : Harness.metric) =
  if m.n > 1 then
    Printf.printf "%-34s %14.6g %-7s (median %.6g, q1 %.6g, q3 %.6g, n %d)\n"
      m.name m.value m.unit m.median m.q1 m.q3 m.n
  else Printf.printf "%-34s %14.6g %s\n" m.name m.value m.unit

(* One workload and kind of run, in this process. *)
let run_one (w : Workloads.t) ~traced ~seed ~seconds =
  let ctx = { Harness.atsim; dir; deadline = Proc.now () +. budget_s } in
  let input = Harness.input ctx w ~seed in
  let o =
    if traced then Harness.traced ctx w input
    else Harness.timed ctx w input ~seconds
  in
  Format.printf "# %s, %s run, seed %d: %a, %d refs, input %s@." w.name
    (if traced then "traced" else "timed")
    seed Gen.pp_kind w.input w.refs input.digest;
  List.iter print_metric o.metrics;
  List.iter (Printf.printf "FAILED: %s\n") o.errors;
  let metrics =
    List.filter_map
      (fun (m : Harness.metric) ->
        if traced || List.mem m.name end_to_end then
          Some
            (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
               (json_number m.value) m.unit)
        else None)
      o.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", " metrics);
  exit (if o.failed = 0 then 0 else 1)

(* Every workload and kind of run, each in a fresh process of this
   program.  A forked child's peak RSS starts at its parent's, so no
   timed run may fork from a harness that an earlier run has grown. *)
let run_all ~modes ~seed ~seconds =
  let module Json = Atp_obs.Json in
  let results =
    List.concat_map
      (fun (w : Workloads.t) ->
        List.map
          (fun traced ->
            let mode = if traced then "1" else "0" in
            let out = Filename.concat dir (w.name ^ "-" ^ mode ^ ".txt") in
            ignore
              (Proc.run ~timeout_s:0 ~stdout:out ~stderr:(out ^ ".err")
                 Sys.executable_name
                 [
                   "--workload"; w.name; "--seed"; string_of_int seed;
                   "--seconds"; string_of_float seconds; "--trace"; mode;
                 ]);
            let text = In_channel.with_open_bin out In_channel.input_all in
            let lines = String.split_on_char '\n' (String.trim text) in
            let rev = List.rev lines in
            List.iter print_endline (List.rev (List.tl rev));
            (w, Json.of_string (List.hd rev)))
          modes)
      Workloads.all
  in
  let count key (_, j) =
    match Result.map (Json.member key) j with
    | Ok (Some (Json.Int n)) -> n
    | _ -> 1 (* no result line: one failed run *)
  in
  let sum key = List.fold_left (fun a r -> a + count key r) 0 results in
  let attempted = sum "attempted" and failed = sum "failed" in
  let metrics =
    List.concat_map
      (fun ((w : Workloads.t), j) ->
        match Result.map (Json.member "metrics") j with
        | Ok (Some (Json.Obj kvs)) ->
          List.map (fun (k, v) -> (w.name ^ "/" ^ k, v)) kvs
        | _ -> [])
      results
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]));
  exit (if failed = 0 then 0 else 1)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let trace = ref None in
  let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  Arg.parse
    [
      ( "--workload",
        Arg.Symbol (names, fun n -> workload := Workloads.find n),
        " run one workload (default: all)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ( "--seconds",
        Arg.Float
          (fun s ->
            if s >= 0. && s <= max_seconds then seconds := s
            else
              raise
                (Arg.Bad
                   (Printf.sprintf "--seconds must be between 0 and %g"
                      max_seconds))),
        "S measuring time of a timed run, at most 60 (default 20)" );
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun t -> trace := Some (t = "1")),
        " 0: timed run, 1: traced run (default: both)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let seed = !seed and seconds = !seconds in
  match (!workload, !trace) with
  | Some w, t -> run_one w ~traced:(t = Some true) ~seed ~seconds
  | None, Some t -> run_all ~modes:[ t ] ~seed ~seconds
  | None, None -> run_all ~modes:[ false; true ] ~seed ~seconds
