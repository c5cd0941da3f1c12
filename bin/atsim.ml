(* atsim: the command-line driver for the address-translation
   simulator.

     atsim params    — print derived decoupling parameters
     atsim sweep     — Figure-1-style huge-page-size sweep on a workload
     atsim decoupled — run the combined algorithm Z on a workload
     atsim policies  — compare paging policies on a workload
     atsim ballsbins — compare balls-and-bins strategies
     atsim trace     — generate / pack / cat / inspect trace files

   Every command is deterministic given --seed. *)

open Cmdliner
open Atp_core
open Atp_memsim
open Atp_paging
open Atp_workloads
open Atp_util

(* ------------------------------------------------------------------ *)
(* Exit-code taxonomy                                                  *)
(* ------------------------------------------------------------------ *)

(* 0 success; 2 usage error (bad flags or flag combinations, matching
   cmdliner's own convention); 3 malformed input data (a trace file
   that exists but cannot be parsed); 125 internal error.  Scripts can
   tell "you called me wrong" from "your data is bad". *)
let exit_usage = 2

let exit_bad_input = 3

(* The codes above, for every command's EXIT STATUS section in place of
   cmdliner's defaults: main turns cmdliner's 124 into 2, and no
   command returns its 123. *)
let exits =
  Cmd.Exit.
    [
      info ok ~doc:"on success.";
      info exit_usage ~doc:"on command line usage errors.";
      info exit_bad_input ~doc:"on a malformed input file.";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

(* Prices must be finite, and prices, cycle counts and sizes at least
   [lo]: anything else is a usage error, never a cost computed from it
   or a machine built from it. *)
let at_least conv lo ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) ->
      Error
        (`Msg
           (Printf.sprintf "invalid value '%s', expected a finite number >= %s"
              s lo))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_at_least lo = at_least Arg.int (string_of_int lo) (fun n -> n >= lo)

let ram_arg =
  Arg.(
    value
    & opt (int_at_least 1) (1 lsl 18)
    & info [ "ram" ] ~docv:"PAGES" ~doc:"Physical memory size in 4 KiB pages.")

let tlb_arg =
  Arg.(
    value
    & opt (int_at_least 1) 1536
    & info [ "tlb" ] ~docv:"ENTRIES" ~doc:"TLB entry count (the paper uses 1536).")

let epsilon_arg =
  Arg.(
    value
    & opt (at_least float "0" (fun e -> Float.is_finite e && e >= 0.0)) 0.01
    & info [ "epsilon" ] ~docv:"E" ~doc:"TLB-miss cost ε in the AT cost model.")

let tcache_entries_arg =
  Arg.(
    value
    & opt (int_at_least 0) 0
    & info [ "tcache-entries" ] ~docv:"N"
        ~doc:
          "Victima-style reach extension: capacity of the cache-resident \
           store that recovers TLB-evicted translations.  0 (default) \
           disables the tier and reproduces the plain model exactly.")

let tcache_latency_arg =
  Arg.(
    value & opt (int_at_least 0) 30
    & info [ "tcache-latency" ] ~docv:"CYCLES"
        ~doc:
          "Cycles for a cache-hierarchy translation probe.  In the abstract \
           cost model a recovered miss is billed \
           ε·CYCLES/(levels·memory-latency) — its cost relative to a full \
           radix walk.")

let accesses_arg =
  Arg.(
    value
    & opt (int_at_least 0) 1_000_000
    & info [ "accesses"; "n" ] ~docv:"N" ~doc:"Measured accesses.")

let warmup_arg =
  Arg.(
    value
    & opt (int_at_least 0) 1_000_000
    & info [ "warmup" ] ~docv:"N" ~doc:"Warmup accesses (not counted).")

let w_arg =
  Arg.(
    value & opt int 64
    & info [ "w" ] ~docv:"BITS" ~doc:"Bits per TLB value (hardware constant).")

let workload_conv =
  Arg.enum
    [
      ("bimodal", `Bimodal);
      ("walk", `Walk);
      ("graph500", `Graph500);
      ("zipf", `Zipf);
      ("uniform", `Uniform);
      ("sequential", `Sequential);
    ]

let workload_arg =
  Arg.(
    value
    & opt workload_conv `Bimodal
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          "Workload: bimodal | walk | graph500 | zipf | uniform | sequential.")

let vpages_arg =
  Arg.(
    value
    & opt (int_at_least 1) (1 lsl 20)
    & info [ "vpages" ] ~docv:"PAGES"
        ~doc:"Virtual address space size in pages (ignored by graph500).")

let scheme_conv =
  Arg.enum [ ("iceberg", `Iceberg); ("one-choice", `One_choice) ]

let scheme_arg =
  Arg.(
    value & opt scheme_conv `Iceberg
    & info [ "scheme" ] ~docv:"NAME" ~doc:"Allocation scheme: iceberg | one-choice.")

let policy_arg ~name ~default ~doc =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Registry.names)) default
    & info [ name ] ~docv:"POLICY" ~doc)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-file" ] ~docv:"PATH"
        ~doc:"Replay a recorded trace file instead of a synthetic workload.")

(* ------------------------------------------------------------------ *)
(* Observability export                                                *)
(* ------------------------------------------------------------------ *)

module Obs = Atp_obs

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Write the run's atp.obs metrics snapshot (counters, gauges, \
           histograms) as JSON to $(docv).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Enable event tracing and write the retained ring of events as \
           JSONL to $(docv).")

let trace_capacity_arg =
  Arg.(
    value & opt int 65536
    & info [ "trace-capacity" ] ~docv:"N"
        ~doc:"Ring-buffer capacity (most recent events kept) for --trace.")

(* One registry per run; tracing only costs when --trace asked for it. *)
let mk_registry ~trace_out ~trace_capacity =
  let trace =
    match trace_out with
    | Some _ -> Obs.Trace.create ~capacity:trace_capacity
    | None -> Obs.Trace.disabled
  in
  Obs.Registry.create ~trace ()

let export_obs reg ~metrics ~trace_out =
  Option.iter (fun path -> Obs.Registry.write_metrics path reg) metrics;
  Option.iter
    (fun path -> Obs.Trace.write_jsonl path (Obs.Registry.trace reg))
    trace_out

let synthetic_workload kind ~vpages ~seed =
  let rng = Prng.create ~seed () in
  match kind with
  | `Bimodal ->
    Bimodal.create ~hot_pages:(max 1 (vpages / 64)) ~virtual_pages:vpages rng
  | `Walk -> Graph_walk.create ~virtual_pages:vpages rng
  | `Graph500 ->
    let scale =
      (* Pick the scale whose footprint lands near the requested space. *)
      let rec fit s =
        if s >= 20 then 20
        else
          let v = 1 lsl s in
          (* footprint is dominated by 2·16·V edges of 8 bytes *)
          if 2 * 16 * v * 8 / 4096 >= vpages then s else fit (s + 1)
      in
      fit 10
    in
    let csr = Kronecker.generate ~scale ~edge_factor:16 rng in
    fst (Graph500.create_from csr rng)
  | `Zipf -> Simple.zipf ~virtual_pages:vpages rng
  | `Uniform -> Simple.uniform ~virtual_pages:vpages rng
  | `Sequential -> Simple.sequential ~virtual_pages:vpages ()

(* An input that cannot be used is the caller's error, reported before
   any simulation starts: a workload that does not fit --vpages, or a
   --trace-file that cannot be opened, exits 2; an empty trace exits 3,
   as main does for one that does not parse. *)
let mk_synthetic_workload kind ~vpages ~seed =
  try synthetic_workload kind ~vpages ~seed
  with Invalid_argument msg ->
    Format.eprintf "atsim: --workload %a does not fit --vpages %d (%s)@."
      (Arg.conv_printer workload_conv)
      kind vpages msg;
    exit exit_usage

let open_input path f =
  try f path with
  | Sys_error msg ->
    Format.eprintf "atsim: %s@."
      (if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg);
    exit exit_usage
  | Invalid_argument msg ->
    Format.eprintf "atsim: %s: %s@." path msg;
    exit exit_bad_input

let mk_workload ?trace_file kind ~vpages ~seed =
  match trace_file with
  | Some path -> open_input path Trace.workload_of_file
  | None -> mk_synthetic_workload kind ~vpages ~seed

(* Flag values a constructor rejects are a usage error as well: exit 2
   naming the flags, never 125 from an uncaught Invalid_argument. *)
let checked flags f =
  try f ()
  with Invalid_argument msg ->
    Format.eprintf "atsim: %s: %s@."
      (String.concat ", "
         (List.map (fun (flag, v) -> Printf.sprintf "%s %d" flag v) flags))
      msg;
    exit exit_usage

let scheme_of = function
  | `Iceberg -> Params.Iceberg { d = 2 }
  | `One_choice -> Params.One_choice

(* ------------------------------------------------------------------ *)
(* params                                                              *)
(* ------------------------------------------------------------------ *)

let params_cmd =
  let run ram w scheme =
    let params =
      checked [ ("--ram", ram); ("-w", w) ] (fun () ->
          Params.derive ~scheme:(scheme_of scheme) ~p:ram ~w ())
    in
    Format.printf "%a@." Params.pp params
  in
  Cmd.v
    (Cmd.info ~exits "params"
       ~doc:"Print the derived decoupling-scheme parameters.")
    Term.(const run $ ram_arg $ w_arg $ scheme_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Write the sweep as an atp.bench/1 row stream to $(docv) (one JSON \
           row per huge-page size; see EXPERIMENTS.md).  Also checkpoints \
           each completed size to $(docv).ckpt, enabling $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Skip sizes already checkpointed by a previous (killed) run of the \
           same $(b,--json) sweep; requires $(b,--json).")

let sweep_cmd =
  let run workload vpages ram tlb epsilon tc_entries tc_latency accesses warmup
      seed trace_file json_path resume metrics trace_out trace_capacity =
    if resume && json_path = None then begin
      prerr_endline "atsim: --resume requires --json PATH";
      exit exit_usage
    end;
    let tc_eps = Walker.tcache_epsilon ~epsilon ~tcache_latency:tc_latency in
    (* The input is decoded once, before the runner starts, and every
       size replays the same two arrays (read-only).  Under the runner
       every size is a task with a private metric registry, so the
       sweep parallelizes and a killed run resumes.  Event tracing
       shares one ring across tasks, which forces sequential execution
       when --trace is given. *)
    let w = mk_workload ?trace_file workload ~vpages ~seed in
    let warmup_trace = Workload.generate w warmup in
    let trace = Workload.generate w accesses in
    let tracer =
      match trace_out with
      | Some _ -> Obs.Trace.create ~capacity:trace_capacity
      | None -> Obs.Trace.disabled
    in
    let task h =
      Atp_exp.Spec.task ~key:(Printf.sprintf "h=%d" h) (fun reg ->
          if trace_out <> None then Obs.Registry.set_trace reg tracer;
          let m =
            Machine.create
              ~obs:(Obs.Scope.v ~prefix:(Printf.sprintf "machine.h%d" h) reg)
              { Machine.default_config with
                ram_pages = ram; tlb_entries = tlb; huge_size = h;
                tcache_entries = tc_entries }
          in
          let c = Machine.run ~warmup:warmup_trace m trace in
          (* With the tier off, rows (and the whole stream) are
             byte-identical to a pre-tier sweep. *)
          Obs.Json.Obj
            ([
               ("h", Obs.Json.Int h);
               ("ios", Obs.Json.Int c.Machine.ios);
               ("tlb_misses", Obs.Json.Int c.Machine.tlb_misses);
             ]
            @ (if tc_entries > 0 then
                 [ ("tcache_hits", Obs.Json.Int c.Machine.tcache_hits) ]
               else [])
            @ [
                ( "cost",
                  Obs.Json.Float
                    (Obs.Cost.price ~tcache_epsilon:tc_eps ~epsilon
                       (Machine.ledger c)) );
              ]))
    in
    let sizes =
      List.filter (fun h -> h <= ram) [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]
    in
    let spec =
      Atp_exp.Spec.v ~name:"sweep"
        ~params:
          ([
            ("ram", Obs.Json.Int ram);
            ("tlb", Obs.Json.Int tlb);
            ("epsilon", Obs.Json.Float epsilon);
            ("accesses", Obs.Json.Int accesses);
            ("warmup", Obs.Json.Int warmup);
            ("seed", Obs.Json.Int seed);
            ("vpages", Obs.Json.Int vpages);
          ]
          @
          if tc_entries > 0 then
            [
              ("tcache_entries", Obs.Json.Int tc_entries);
              ("tcache_latency", Obs.Json.Int tc_latency);
            ]
          else [])
        (List.map task sizes)
    in
    let config =
      {
        Atp_exp.Runner.default_config with
        domains = (if trace_out <> None then Some 1 else None);
        json_path;
        checkpoint_path = Option.map (fun p -> p ^ ".ckpt") json_path;
        resume;
      }
    in
    let outcomes = Atp_exp.Runner.run ~config spec in
    Format.printf "%8s %14s %14s %14s@." "h" "IOs" "TLB misses"
      (Printf.sprintf "cost(e=%g)" epsilon);
    List.iter
      (fun (o : Atp_exp.Outcome.t) ->
        match
          ( Atp_exp.Outcome.int_field "h" o,
            Atp_exp.Outcome.int_field "ios" o,
            Atp_exp.Outcome.int_field "tlb_misses" o,
            Atp_exp.Outcome.float_field "cost" o )
        with
        | Some h, Some ios, Some tlb_misses, Some cost ->
          Format.printf "%8d %14d %14d %14.1f@." h ios tlb_misses cost
        | _ ->
          Format.printf "%8s failed: %s@." o.Atp_exp.Outcome.key
            (match Atp_exp.Outcome.error o with
            | Some (e, _) -> e
            | None -> "unknown"))
      outcomes;
    (* --metrics: per-task registry snapshots live in the JSON rows;
       the file export merges them (prefixes are disjoint by h). *)
    Option.iter
      (fun path ->
        let section name =
          let fields =
            List.concat_map
              (fun o ->
                match
                  Option.bind (Atp_exp.Outcome.obs o) (Obs.Json.member name)
                with
                | Some (Obs.Json.Obj kvs) -> kvs
                | Some _ | None -> [])
              outcomes
          in
          (name, Obs.Json.Obj fields)
        in
        Out_channel.with_open_text path (fun oc ->
            output_string oc
              (Obs.Json.to_string
                 (Obs.Json.Obj
                    [
                      section "counters"; section "gauges"; section "histograms";
                    ]));
            output_char oc '\n'))
      metrics;
    Option.iter (fun path -> Obs.Trace.write_jsonl path tracer) trace_out
  in
  Cmd.v
    (Cmd.info ~exits "sweep"
       ~doc:"Huge-page-size sweep (the Figure 1 experiment) on a workload.")
    Term.(
      const run $ workload_arg $ vpages_arg $ ram_arg $ tlb_arg $ epsilon_arg
      $ tcache_entries_arg $ tcache_latency_arg
      $ accesses_arg $ warmup_arg $ seed_arg $ trace_file_arg $ json_arg
      $ resume_arg $ metrics_arg $ trace_out_arg $ trace_capacity_arg)

(* ------------------------------------------------------------------ *)
(* decoupled                                                           *)
(* ------------------------------------------------------------------ *)

module Engine = Atp_engine.Engine

let shards_arg =
  Arg.(
    value & opt (int_at_least 1) 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Replay through the sharded engine with $(docv) epochs in flight \
           (engine mode; 1 plus no $(b,--stream) keeps the exact sequential \
           in-memory path).")

let epoch_arg =
  Arg.(
    value & opt (int_at_least 1) 262_144
    & info [ "epoch" ] ~docv:"LEN"
        ~doc:"Engine mode: references per epoch time-slice.")

let shard_warmup_arg =
  Arg.(
    value
    & opt (some (int_at_least 0)) None
    & info [ "shard-warmup" ] ~docv:"N"
        ~doc:
          "Engine mode: warm-up references replayed (then discarded) before \
           each epoch; defaults to one epoch.  Replaces $(b,--warmup), which \
           engine mode ignores.")

let stream_arg =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:
          "Engine mode: never materialize the trace — pull references \
           chunk-by-chunk from a packed $(b,--trace-file) (see $(b,atsim \
           trace pack)) or straight from the synthetic generator, so peak \
           memory is bounded by shards x (epoch + warm-up).")

let decoupled_cmd =
  let run workload vpages ram tlb epsilon accesses warmup seed w scheme xp yp
      trace_file shards epoch shard_warmup stream metrics trace_out
      trace_capacity =
    let reg = mk_registry ~trace_out ~trace_capacity in
    let params =
      checked [ ("--ram", ram); ("-w", w) ] (fun () ->
          Params.derive ~scheme:(scheme_of scheme) ~p:ram ~w ())
    in
    Format.printf "%a@.@." Params.pp params;
    let make_sim ?obs () =
      (* Deterministic from [seed] alone, so engine worker domains can
         call it concurrently and build identical simulators. *)
      let rng = Prng.create ~seed:(seed + 1) () in
      let x =
        Policy.instantiate (Registry.find_exn xp) ~rng:(Prng.split rng)
          ~capacity:tlb ()
      in
      let y =
        Policy.instantiate (Registry.find_exn yp) ~rng:(Prng.split rng)
          ~capacity:(Params.usable_pages params) ()
      in
      Simulation.create ~seed ?obs ~params ~x ~y ()
    in
    if shards > 1 || stream then begin
      let source =
        match trace_file with
        | Some path when stream ->
          open_input path (fun path ->
              match Trace.format_of_file path with
              | Trace.Streamed -> Engine.source_of_stream path
              | Trace.Text | Trace.Binary | Trace.Hex ->
                (* Hex refuses inside load with an import pointer. *)
                Engine.source_of_array (Trace.load path))
        | Some path ->
          open_input path (fun path -> Engine.source_of_array (Trace.load path))
        | None ->
          let wl = mk_synthetic_workload workload ~vpages ~seed in
          Engine.source_of_workload wl ~n:accesses
      in
      let config =
        {
          Engine.shards;
          epoch_len = epoch;
          warmup = Option.value shard_warmup ~default:epoch;
        }
      in
      let totals =
        Engine.replay
          ~obs:(Obs.Scope.v ~prefix:"engine" reg)
          ~config
          ~make_sim:(fun () -> make_sim ())
          source
      in
      Format.printf "%a@." Engine.pp_totals totals;
      (* Honest accuracy label: exact when the warm-up window covered
         every epoch's whole stream prefix; the documented bound only
         applies under the adequacy condition (warm-up can fill the
         caches — see EXPERIMENTS.md B2), which we cannot check here. *)
      let exact =
        totals.Engine.epochs <= 1
        || config.Engine.warmup >= (totals.Engine.epochs - 1) * epoch
      in
      Format.printf "C(Z) = %.2f (epsilon=%g, %s)@."
        (Obs.Cost.price ~epsilon (Engine.ledger totals))
        epsilon
        (if exact then "exact: warm-up covered every epoch prefix"
         else
           Printf.sprintf
             "approximate: within %.0f%% of sequential under the adequacy \
              condition, see EXPERIMENTS.md B2"
             (100. *. Engine.documented_error_bound))
    end
    else begin
      let wl = mk_workload ?trace_file workload ~vpages ~seed in
      let warmup_trace = Workload.generate wl warmup in
      let trace = Workload.generate wl accesses in
      let z = make_sim ~obs:(Obs.Scope.v ~prefix:"sim" reg) () in
      let r = Simulation.run ~warmup:warmup_trace z trace in
      Format.printf "%a@." Simulation.pp_report r;
      Format.printf "C(Z) = %.2f   C_TLB(X) = %.2f   C_IO(Y) = %.2f@."
        (Simulation.cost ~epsilon r)
        (Simulation.c_tlb ~epsilon r)
        (Simulation.c_io r)
    end;
    export_obs reg ~metrics ~trace_out
  in
  Cmd.v
    (Cmd.info ~exits "decoupled"
       ~doc:
         "Run the combined memory-management algorithm Z (Theorem 4) on a \
          workload, sequentially or through the sharded streaming engine.")
    Term.(
      const run $ workload_arg $ vpages_arg $ ram_arg $ tlb_arg $ epsilon_arg
      $ accesses_arg $ warmup_arg $ seed_arg $ w_arg $ scheme_arg
      $ policy_arg ~name:"x-policy" ~default:"lru"
          ~doc:"TLB-replacement policy (X)."
      $ policy_arg ~name:"y-policy" ~default:"lru"
          ~doc:"RAM-replacement policy (Y)."
      $ trace_file_arg $ shards_arg $ epoch_arg $ shard_warmup_arg $ stream_arg
      $ metrics_arg $ trace_out_arg $ trace_capacity_arg)

(* ------------------------------------------------------------------ *)
(* policies                                                            *)
(* ------------------------------------------------------------------ *)

let policies_cmd =
  let run workload vpages accesses warmup seed capacity trace_file =
    let wl = mk_workload ?trace_file workload ~vpages ~seed in
    let warmup_trace = Workload.generate wl warmup in
    let trace = Workload.generate wl accesses in
    Format.printf "%-10s %14s %14s %12s@." "policy" "hits" "misses" "miss rate";
    List.iter
      (fun (module P : Policy.S) ->
        let rng = Prng.create ~seed:(seed + 7) () in
        let inst = Policy.instantiate (module P) ~rng ~capacity () in
        Array.iter (fun p -> ignore (inst.Policy.access p)) warmup_trace;
        let stats = Sim.run inst trace in
        Format.printf "%-10s %14d %14d %12.4f@." P.name stats.Sim.hits
          stats.Sim.misses (Sim.miss_rate stats))
      Registry.all;
    (* Offline optimum on the measured window for reference. *)
    let opt = Opt.misses ~capacity (Array.append warmup_trace trace) in
    Format.printf "%-10s %14s %14d %12s   (whole run incl. warmup)@." "opt" "-"
      opt "-"
  in
  Cmd.v
    (Cmd.info ~exits "policies" ~doc:"Compare paging policies on a workload.")
    Term.(
      const run $ workload_arg $ vpages_arg $ accesses_arg $ warmup_arg
      $ seed_arg
      $ Arg.(
          value
          & opt (int_at_least 1) 4096
          & info [ "capacity" ] ~docv:"PAGES" ~doc:"Cache capacity in pages.")
      $ trace_file_arg)

(* ------------------------------------------------------------------ *)
(* ballsbins                                                           *)
(* ------------------------------------------------------------------ *)

let ballsbins_cmd =
  let run bins lambda steps seed =
    let open Atp_ballsbins in
    let m = lambda * bins in
    Format.printf "%-12s %10s %10s %10s@." "strategy" "max ever" "max final"
      "failed";
    let tau = Strategy.default_tau ~m ~bins in
    List.iter
      (fun (mk, layers) ->
        let rng = Prng.create ~seed () in
        let strategy = mk rng in
        let game = Game.create ~layers ~bins () in
        let arng = Prng.create ~seed:(seed + 1) () in
        let ops = Adversary.churn arng ~m ~steps ~fresh:true in
        let r =
          Runner.run ~bin_capacity:(tau + 8) ~game ~strategy ops
        in
        Format.printf "%-12s %10d %10d %10d@." strategy.Strategy.name
          r.Runner.max_load_ever r.Runner.max_load_final r.Runner.failed_balls)
      [
        ((fun rng -> Strategy.one_choice rng ~bins), 1);
        ((fun rng -> Strategy.greedy rng ~d:2 ~bins), 1);
        ((fun rng -> Strategy.iceberg rng ~tau ~bins ()), 2);
      ]
  in
  Cmd.v
    (Cmd.info ~exits "ballsbins"
       ~doc:"Compare balls-and-bins strategies under a churn adversary.")
    Term.(
      const run
      $ Arg.(
          value & opt int 4096
          & info [ "bins" ] ~docv:"N" ~doc:"Number of bins.")
      $ Arg.(
          value & opt int 12
          & info [ "lambda" ] ~docv:"L" ~doc:"Average load m/n.")
      $ Arg.(
          value & opt int 500_000
          & info [ "steps" ] ~docv:"N" ~doc:"Churn rounds after the fill.")
      $ seed_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let chunk_arg =
  Arg.(
    value
    & opt int Trace.Stream.default_chunk_size
    & info [ "chunk" ] ~docv:"N"
        ~doc:"References per chunk of the streamed (ATPS) format.")

let pp_stream_header ppf (h : Trace.Stream.header) =
  Format.fprintf ppf "format=streamed version=%d chunk_size=%d length=%d"
    h.Trace.Stream.version h.Trace.Stream.chunk_size h.Trace.Stream.length

let trace_gen_cmd =
  let run workload vpages accesses seed out binary stream chunk =
    let wl = mk_synthetic_workload workload ~vpages ~seed in
    if stream then begin
      (* Straight from the generator into the chunked writer: the
         trace is never resident, so --accesses can exceed RAM. *)
      Trace.Stream.with_writer ~chunk_size:chunk out (fun w ->
          for _ = 1 to accesses do
            Trace.Stream.push w (wl.Workload.next ())
          done);
      Format.printf "wrote %s: %a@." out pp_stream_header
        (Trace.Stream.with_reader out Trace.Stream.header)
    end
    else begin
      let trace = Workload.generate wl accesses in
      if binary then Trace.save_binary out trace else Trace.save_text out trace;
      Format.printf "wrote %s: %a@." out Trace.pp_summary
        (Trace.summarize trace)
    end
  in
  Cmd.v
    (Cmd.info ~exits "gen" ~doc:"Generate a page-reference trace file.")
    Term.(
      const run $ workload_arg $ vpages_arg $ accesses_arg $ seed_arg
      $ Arg.(
          required
          & opt (some string) None
          & info [ "out"; "o" ] ~docv:"PATH" ~doc:"Output path.")
      $ Arg.(
          value & flag & info [ "binary" ] ~doc:"Binary format (default text).")
      $ Arg.(
          value & flag
          & info [ "stream" ]
              ~doc:"Streamed chunked format, written without materializing.")
      $ chunk_arg)

let src_pos_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SRC" ~doc:"Input trace file (any format).")

let trace_pack_cmd =
  let run src dst chunk =
    Trace.pack ~chunk_size:chunk ~src ~dst ();
    Format.printf "packed %s -> %s: %a@." src dst pp_stream_header
      (Trace.Stream.with_reader dst Trace.Stream.header)
  in
  Cmd.v
    (Cmd.info ~exits "pack"
       ~doc:
         "Convert a trace (text, binary, or streamed) into the streamed \
          chunked format, one chunk resident at a time.")
    Term.(
      const run $ src_pos_arg
      $ Arg.(
          required
          & pos 1 (some string) None
          & info [] ~docv:"DST" ~doc:"Output path (ATPS).")
      $ chunk_arg)

let trace_cat_cmd =
  let run src limit =
    let printed = ref 0 in
    let emit page =
      if Option.fold ~none:true ~some:(fun l -> !printed < l) limit then begin
        print_string (string_of_int page);
        print_char '\n';
        incr printed
      end
    in
    (match Trace.format_of_file src with
    | Trace.Streamed -> Trace.Stream.iter emit src
    | Trace.Text | Trace.Binary | Trace.Hex -> Array.iter emit (Trace.load src));
    flush stdout
  in
  Cmd.v
    (Cmd.info ~exits "cat"
       ~doc:
         "Print a trace as text, one reference per line (streamed inputs are \
          decoded chunk by chunk).")
    Term.(
      const run $ src_pos_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "limit" ] ~docv:"N" ~doc:"Stop after $(docv) references."))

let trace_info_cmd =
  let run src hex =
    (match Trace.format_of_file src with
    | Trace.Streamed ->
      Format.printf "%a@." pp_stream_header
        (Trace.Stream.with_reader src Trace.Stream.header)
    | Trace.Hex ->
      Format.printf
        "format=hex (external address trace; convert with `atsim trace \
         import`)@."
    | (Trace.Text | Trace.Binary) as f ->
      Format.printf "format=%a %a@." Trace.pp_format f Trace.pp_summary
        (Trace.summarize (Trace.load src)));
    if hex > 0 then begin
      let ic = open_in_bin src in
      let n = min hex (in_channel_length ic) in
      let bytes = really_input_string ic n in
      close_in ic;
      String.iteri
        (fun i c ->
          if i mod 16 = 0 then Format.printf "%08x " i;
          Format.printf " %02x" (Char.code c);
          if i mod 16 = 15 || i = n - 1 then Format.printf "@.")
        bytes
    end
  in
  Cmd.v
    (Cmd.info ~exits "info"
       ~doc:
         "Print a trace file's format and header, optionally with a hex dump \
          of its first bytes (golden tests pin the on-disk format with it).")
    Term.(
      const run $ src_pos_arg
      $ Arg.(
          value & opt int 0
          & info [ "hex" ] ~docv:"BYTES"
              ~doc:"Also hex-dump the first $(docv) bytes of the file."))

(* trace import: external address traces -> ATPS page traces.  The
   importers stream line-by-line into the chunked writer, so a capture
   of any size converts in constant memory. *)

let import_format_conv =
  Arg.enum
    [
      ("auto", None);
      ("hex", Some Import.Hex);
      ("lackey", Some Import.Lackey);
      ("csv", Some Import.Csv);
    ]

let trace_import_cmd =
  let run src dst format page_bits limit dedup no_instr column radix skip_header
      chunk =
    let config =
      {
        Import.page_bits;
        limit;
        dedup_consecutive = dedup;
        drop_instr = no_instr;
        csv = { Import.column; radix; skip_header };
      }
    in
    let format =
      match format with
      | Some f -> f
      | None -> (
        match Import.sniff src with
        | `Import f -> f
        | `Native f ->
          Format.eprintf
            "atsim: %s is already a native %a trace; use `atsim trace pack`@."
            src Trace.pp_format f;
          exit exit_usage)
    in
    let stats =
      try Import.import_file ~chunk_size:chunk ~config ~format ~src ~dst ()
      with Trace.Parse_error { path; what } ->
        Format.eprintf "atsim: %s: %s@." path what;
        exit exit_bad_input
    in
    Format.printf "imported %s -> %s: format=%a page_bits=%d %a@." src dst
      Import.pp_format format page_bits Import.pp_stats stats;
    Format.printf "%a@." pp_stream_header
      (Trace.Stream.with_reader dst Trace.Stream.header)
  in
  Cmd.v
    (Cmd.info ~exits "import"
       ~doc:
         "Convert an external memory trace (hex address-per-line, valgrind \
          lackey output, or CSV) into the streamed ATPS page-trace format, \
          shifting addresses to virtual page numbers; the conversion streams \
          and never materializes the trace.")
    Term.(
      const run $ src_pos_arg
      $ Arg.(
          required
          & pos 1 (some string) None
          & info [] ~docv:"DST" ~doc:"Output path (ATPS).")
      $ Arg.(
          value
          & opt import_format_conv None
          & info [ "format" ] ~docv:"FMT"
              ~doc:
                "Source format: auto | hex | lackey | csv (auto sniffs the \
                 content; digit-only files are ambiguous, force hex for \
                 those).")
      $ Arg.(
          value & opt int 12
          & info [ "page-bits" ] ~docv:"BITS"
              ~doc:"Address-to-VPN shift (12 = 4 KiB pages).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "limit" ] ~docv:"N"
              ~doc:"Stop after $(docv) imported references.")
      $ Arg.(
          value & flag
          & info [ "dedup-consecutive" ]
              ~doc:
                "Drop a reference that repeats the previously emitted page \
                 (collapses same-page runs of sub-page-stride accesses).")
      $ Arg.(
          value & flag
          & info [ "no-instr" ]
              ~doc:"Lackey: drop instruction-fetch (I) records.")
      $ Arg.(
          value & opt int 1
          & info [ "column" ] ~docv:"N"
              ~doc:"CSV: 1-based index of the address column.")
      $ Arg.(
          value
          & opt (Arg.enum [ ("hex", Import.Hexadecimal); ("dec", Import.Decimal) ])
              Import.Hexadecimal
          & info [ "radix" ] ~docv:"RADIX"
              ~doc:"CSV: radix of the address column (hex | dec).")
      $ Arg.(
          value & flag
          & info [ "skip-header" ] ~doc:"CSV: skip the first line of the file.")
      $ chunk_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info ~exits "trace"
       ~doc:
         "Generate, pack, import, print, and inspect page-reference trace \
          files.")
    [
      trace_gen_cmd;
      trace_pack_cmd;
      trace_import_cmd;
      trace_cat_cmd;
      trace_info_cmd;
    ]

(* ------------------------------------------------------------------ *)
(* mrc                                                                 *)
(* ------------------------------------------------------------------ *)

let mrc_cmd =
  let run workload vpages accesses seed =
    let wl = mk_workload workload ~vpages ~seed in
    let trace = Workload.generate wl accesses in
    let m = Mattson.of_trace trace in
    Format.printf "accesses=%d cold=%d distinct=%d ws(99.9%%)=%d@." accesses
      (Mattson.cold_misses m) (Mattson.distinct_pages m)
      (Mattson.working_set_size m ~fraction:0.999);
    Format.printf "%12s %14s %12s@." "capacity" "misses" "miss rate";
    let rec caps c acc = if c > vpages then List.rev acc else caps (c * 4) (c :: acc) in
    List.iter
      (fun c ->
        let misses = Mattson.misses m c in
        Format.printf "%12d %14d %12.4f@." c misses
          (float_of_int misses /. float_of_int accesses))
      (caps 64 [])
  in
  Cmd.v
    (Cmd.info ~exits "mrc"
       ~doc:"LRU miss-ratio curve of a workload (single-pass Mattson).")
    Term.(const run $ workload_arg $ vpages_arg $ accesses_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* thp                                                                 *)
(* ------------------------------------------------------------------ *)

let thp_cmd =
  let run workload vpages ram accesses warmup seed huge_size =
    let wl = mk_workload workload ~vpages ~seed in
    let warmup_trace = Workload.generate wl warmup in
    let trace = Workload.generate wl accesses in
    let t =
      checked [ ("--ram", ram); ("--huge-size", huge_size) ] (fun () ->
          Thp.create { Thp.default_config with ram_pages = ram; huge_size })
    in
    let c = Thp.run ~warmup:warmup_trace t trace in
    Format.printf "%a@." Thp.pp_counters c;
    Format.printf "promoted regions now: %d; cost(e=0.01) = %.1f@."
      (Thp.promoted_regions t)
      (Obs.Cost.price ~epsilon:0.01 (Thp.ledger c))
  in
  Cmd.v
    (Cmd.info ~exits "thp"
       ~doc:"Run the transparent-huge-pages OS model on a workload.")
    Term.(
      const run $ workload_arg $ vpages_arg $ ram_arg $ accesses_arg
      $ warmup_arg $ seed_arg
      $ Arg.(
          value & opt int 512
          & info [ "huge-size" ] ~docv:"PAGES"
              ~doc:"Huge-page size in base pages (power of two)."))

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let run workload vpages ram tlb epsilon tc_entries tc_latency accesses warmup
      seed huge_size =
    let wl = mk_workload workload ~vpages ~seed in
    let warmup_trace = Workload.generate wl warmup in
    let trace = Workload.generate wl accesses in
    let schemes =
      checked
        [ ("--ram", ram); ("--tlb", tlb); ("--huge-size", huge_size) ]
      @@ fun () ->
      [
        Atp_core.Scheme.physical ~tlb_entries:tlb ~ram_pages:ram ~huge_size:1 ();
        Atp_core.Scheme.physical ~tlb_entries:tlb ~ram_pages:ram ~huge_size ();
        Atp_core.Scheme.thp ~base_tlb_entries:tlb ~ram_pages:ram ~huge_size ();
        Atp_core.Scheme.superpage ~base_tlb_entries:tlb ~ram_pages:ram
          ~huge_size ();
        Atp_core.Scheme.decoupled ~tlb_entries:tlb ~ram_pages:ram ~w:64 ();
        Atp_core.Scheme.hybrid ~tlb_entries:tlb ~ram_pages:ram ~chunk:4 ~w:64 ();
      ]
      @
      (* Reach extension enters the line-up only when asked for, so the
         default output is unchanged. *)
      if tc_entries > 0 then
        [
          Atp_core.Scheme.physical_reach ~tlb_entries:tlb ~ram_pages:ram
            ~huge_size:1 ~tcache_entries:tc_entries ();
        ]
      else []
    in
    let tc_eps = Walker.tcache_epsilon ~epsilon ~tcache_latency:tc_latency in
    Format.printf "%-16s %14s %14s %14s@." "scheme" "IOs" "TLB events"
      (Printf.sprintf "cost(e=%g)" epsilon);
    List.iter
      (fun (name, ios, tlb_events, cost) ->
        Format.printf "%-16s %14d %14d %14.1f@." name ios tlb_events cost)
      (Atp_core.Scheme.compare_all ~warmup:warmup_trace ~tcache_epsilon:tc_eps
         ~epsilon schemes trace)
  in
  Cmd.v
    (Cmd.info ~exits "compare"
       ~doc:
         "Compare every memory-management scheme (physical, THP, superpage, \
          decoupled, hybrid, and — with --tcache-entries — Victima-style \
          reach extension) on one workload.")
    Term.(
      const run $ workload_arg $ vpages_arg $ ram_arg $ tlb_arg $ epsilon_arg
      $ tcache_entries_arg $ tcache_latency_arg
      $ accesses_arg $ warmup_arg $ seed_arg
      $ Arg.(
          value & opt int 512
          & info [ "huge-size" ] ~docv:"PAGES" ~doc:"Huge/super page size."))

let () =
  let doc = "Paging and the address-translation problem: simulators and schemes" in
  let info = Cmd.info ~exits "atsim" ~version:"1.0.0" ~doc in
  (* A malformed trace file is a data error, not an internal one nor a
     usage mistake: any Parse_error that escapes a subcommand exits
     with the malformed-input code (3) and a uniform path: message —
     distinct from flag errors (2) and internal errors (125). *)
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group info
            [
            params_cmd;
            sweep_cmd;
            decoupled_cmd;
            policies_cmd;
            ballsbins_cmd;
            trace_cmd;
            mrc_cmd;
            thp_cmd;
            compare_cmd;
          ])
       (* cmdliner's 124, a flag it cannot parse, is a usage error. *)
       |> fun code -> if code = Cmd.Exit.cli_error then exit_usage else code
     with
     | Trace.Parse_error { path; what } ->
       Format.eprintf "atsim: %s: %s@." path what;
       exit_bad_input
     | e ->
       (* mirror cmdliner's default uncaught-exception report *)
       let bt = Printexc.get_raw_backtrace () in
       Format.eprintf "atsim: internal error, uncaught exception:@.%s@.%s@."
         (Printexc.to_string e)
         (Printexc.raw_backtrace_to_string bt);
       125)
