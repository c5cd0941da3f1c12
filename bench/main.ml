(* The benchmark harness: regenerates every figure of the paper's
   evaluation (Section 6) plus the ablations listed in DESIGN.md.

     dune exec bench/main.exe              # everything, default scale
     dune exec bench/main.exe -- fig1a     # one experiment
     dune exec bench/main.exe -- --quick   # reduced scale (CI-friendly)

   Experiments: fig1a fig1b fig1c decoupling ballsbins failures hybrid
   eps vmm thp smp mrc competitive engine core reach.

   Every experiment runs on the Atp_exp runner: tasks execute in
   parallel with per-task outcomes (a raising task becomes an error
   row, its siblings still report), per-task wall-clock and obs
   snapshots, optional --retries, and — with --json — a machine-
   readable BENCH_<experiment>.json row stream (schema atp.bench/1,
   see EXPERIMENTS.md) checkpointed task by task so a killed sweep
   resumes with --resume instead of restarting from zero.

   Scales are 1/16 of the paper's (4 GiB virtual address spaces instead
   of 64 GiB, millions of references instead of hundreds of millions);
   the shapes — who wins, by how many orders of magnitude, where the
   curves cross — are the reproduction targets, not absolute counts.
   See EXPERIMENTS.md for the paper-vs-measured record. *)

open Atp_core
open Atp_memsim
open Atp_paging
open Atp_workloads
open Atp_util
module Obs = Atp_obs
module Json = Atp_obs.Json
module Spec = Atp_exp.Spec
module Runner = Atp_exp.Runner
module Outcome = Atp_exp.Outcome
module Report = Atp_exp.Report

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: main.exe [--quick] [--json] [--resume] [--out-dir DIR] \
   [--retries N] [experiment ...]\n\
  \  --quick        reduced scale (CI-friendly)\n\
  \  --json         write BENCH_<experiment>.json row streams (implies \
   checkpointing)\n\
  \  --resume       skip tasks already checkpointed by a previous \
   (killed) run\n\
  \  --out-dir DIR  where BENCH files and .checkpoints/ go (default .)\n\
  \  --retries N    extra attempts per failing task (default 0)\n"

let quick_flag = ref false

let json_flag = ref false

let resume_flag = ref false

let out_dir = ref "."

let retries = ref 0

let requested = ref []

let bad_usage msg =
  prerr_string (msg ^ "\n" ^ usage);
  exit 2

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick_flag := true;
      parse rest
    | "--json" :: rest ->
      json_flag := true;
      parse rest
    | "--resume" :: rest ->
      resume_flag := true;
      parse rest
    | [ "--out-dir" ] -> bad_usage "--out-dir needs a directory"
    | "--out-dir" :: dir :: rest ->
      out_dir := dir;
      parse rest
    | [ "--retries" ] -> bad_usage "--retries needs a count"
    | "--retries" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 0 -> retries := n
       | Some _ | None -> bad_usage "--retries wants a non-negative integer");
      parse rest
    | arg :: _ when String.length arg >= 2 && String.equal (String.sub arg 0 2) "--"
      ->
      bad_usage (Printf.sprintf "unknown option %s" arg)
    | name :: rest ->
      requested := name :: !requested;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  requested := List.rev !requested

let quick = !quick_flag

let scale_down n = if quick then n / 8 else n

let epsilon = 0.01

let hline = String.make 78 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n" hline title hline

(* ------------------------------------------------------------------ *)
(* Runner plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let shared_params =
  [ ("quick", Json.Bool quick); ("epsilon", Json.Float epsilon) ]

let spec ?(params = []) ~name tasks =
  Spec.v ~params:(shared_params @ params) ~name tasks

(* --json turns on both the row stream and the checkpoint that backs
   --resume; --resume alone still checkpoints so an interrupted
   pretty-only run can be finished.  [domains] caps how many tasks run
   at once (default: the recommended domain count). *)
let run_spec ?domains (s : Spec.t) =
  let json_path =
    if !json_flag then
      Some (Filename.concat !out_dir ("BENCH_" ^ s.Spec.name ^ ".json"))
    else None
  in
  let checkpoint_path =
    if !json_flag || !resume_flag then
      Some
        (Filename.concat
           (Filename.concat !out_dir ".checkpoints")
           (s.Spec.name ^ ".ckpt"))
    else None
  in
  let config =
    {
      Runner.default_config with
      domains;
      retries = !retries;
      json_path;
      checkpoint_path;
      resume = !resume_flag;
    }
  in
  let outcomes = Runner.run ~config s in
  let replayed =
    List.length (List.filter (fun o -> o.Outcome.replayed) outcomes)
  in
  if replayed > 0 then
    Printf.printf "(resume: %d/%d tasks replayed from checkpoint)\n" replayed
      (List.length outcomes);
  Option.iter (Printf.printf "(json rows: %s)\n") json_path;
  outcomes

let print_obs_counters ~title outcome =
  match Option.bind (Outcome.obs outcome) (Json.member "counters") with
  | Some (Json.Obj fields) when fields <> [] ->
    Printf.printf "obs snapshot (%s):\n" title;
    List.iter
      (fun (k, v) ->
        match Json.as_int v with
        | Some n ->
          Printf.printf "%s = %s\n" k (Format.asprintf "%a" Stats.pp_count n)
        | None -> ())
      fields
  | Some _ | None -> ()

let with_prefix prefix (o : Outcome.t) =
  let n = String.length prefix in
  String.length o.Outcome.key >= n
  && String.equal (String.sub o.Outcome.key 0 n) prefix

(* ------------------------------------------------------------------ *)
(* Figure 1: IOs and TLB misses vs huge-page size                      *)
(* ------------------------------------------------------------------ *)

let huge_sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

let machine_data (c : Machine.counters) =
  Json.Obj
    [
      ("ios", Json.Int c.Machine.ios);
      ("tlb_misses", Json.Int c.Machine.tlb_misses);
      ("cost", Json.Float (Machine.cost ~epsilon c));
    ]

let cost_columns =
  [
    Report.col_int ~field:"ios" "IOs";
    Report.col_int ~field:"tlb_misses" "TLB misses";
    Report.col_float ~field:"cost" "cost(e=0.01)";
  ]

(* Replay one fixed (warmup, measured) trace pair across every h and
   the decoupled reference — the paper's trace-driven methodology.
   Each task owns a machine and a private obs registry; the traces are
   shared read-only, so the sweep runs one domain per h. *)
let figure_sweep ~name ~exp ~ram ~tlb_entries ~warmup ~trace () =
  header
    (Printf.sprintf
       "%s — IOs and TLB misses vs huge-page size h (RAM %d pages, TLB %d)"
       name ram tlb_entries);
  let machine_task h =
    Spec.task ~key:(Printf.sprintf "h=%d" h) (fun reg ->
        let m =
          Machine.create
            ~obs:(Obs.Scope.v ~prefix:(Printf.sprintf "machine.h%d" h) reg)
            { Machine.default_config with
              ram_pages = ram; tlb_entries; huge_size = h }
        in
        machine_data (Machine.run ~warmup m trace))
  in
  let decoupled_task =
    (* The decoupled scheme on the same trace, as a reference row. *)
    Spec.task ~key:"decoupled" (fun reg ->
        let params = Params.derive ~p:ram ~w:64 () in
        let x = Policy.instantiate (module Lru) ~capacity:tlb_entries () in
        let y =
          Policy.instantiate (module Lru)
            ~capacity:(Params.usable_pages params) ()
        in
        let z =
          Simulation.create ~obs:(Obs.Scope.v ~prefix:"sim" reg) ~params ~x ~y
            ()
        in
        let r = Simulation.run ~warmup z trace in
        Json.Obj
          [
            ("ios", Json.Int r.Simulation.ios);
            ("tlb_misses", Json.Int r.Simulation.tlb_fills);
            ("cost", Json.Float (Simulation.cost ~epsilon r));
            ("h_max", Json.Int params.Params.h_max);
          ])
  in
  let tasks =
    (* Quick-mode RAM can be smaller than the largest huge page; skip
       sizes that don't fit.  The sweep may end up empty or a
       singleton — Report.shape_line totals both. *)
    List.filter_map
      (fun h -> if h > ram then None else Some (machine_task h))
      huge_sizes
    @ [ decoupled_task ]
  in
  let s =
    spec ~name:exp
      ~params:[ ("ram", Json.Int ram); ("tlb_entries", Json.Int tlb_entries) ]
      tasks
  in
  let outcomes = run_spec s in
  Report.print_table
    ~columns:(cost_columns @ [ Report.col_int ~width:8 ~field:"h_max" "h_max" ])
    outcomes;
  let rows =
    List.filter_map
      (fun o ->
        if String.equal o.Outcome.key "decoupled" then None
        else
          match (Outcome.int_field "ios" o, Outcome.int_field "tlb_misses" o) with
          | Some ios, Some tlb -> Some (o.Outcome.key, ios, tlb)
          | _ -> None)
      outcomes
  in
  print_endline (Report.shape_line rows);
  (* Self-report: the decoupled reference's cost model in one
     snapshot (per-h machine snapshots live in the JSON rows). *)
  List.iter
    (fun o ->
      if String.equal o.Outcome.key "decoupled" then
        print_obs_counters ~title:"decoupled reference, measured window" o)
    outcomes

let fig1a () =
  let rng = Prng.create ~seed:100 () in
  (* 1/16 of the paper: hot 64 MiB region inside a 4 GiB space, RAM
     1 GiB, 99.99% hot. *)
  let w =
    Bimodal.create ~hot_fraction:0.9999 ~hot_pages:(1 lsl 14)
      ~virtual_pages:(1 lsl 20) rng
  in
  let warmup = Workload.generate w (scale_down 2_000_000) in
  let trace = Workload.generate w (scale_down 2_000_000) in
  figure_sweep ~name:"Figure 1a: bimodal uniform" ~exp:"fig1a" ~ram:(1 lsl 18)
    ~tlb_entries:1536 ~warmup ~trace ()

let fig1b () =
  let rng = Prng.create ~seed:200 () in
  (* 4 GiB virtual space, 2 GiB cache: the paper's 64/32 ratio. *)
  let w = Graph_walk.create ~alpha:0.01 ~virtual_pages:(1 lsl 20) rng in
  let warmup = Workload.generate w (scale_down 2_000_000) in
  let trace = Workload.generate w (scale_down 2_000_000) in
  figure_sweep ~name:"Figure 1b: Pareto random graph walk" ~exp:"fig1b"
    ~ram:(1 lsl 19) ~tlb_entries:1536 ~warmup ~trace ()

let fig1c () =
  (* The paper replays a 5M-access window of a graph500 run whose
     process footprint (60 GB) dwarfs the pages the window touches
     (525 MB), and sizes the cache just below the touched set (520 MB).
     We reproduce that regime: a graph much larger than the trace
     window (so the window's touched set is sparse in the address
     space), RAM sized at 520/525 of the measured touched set. *)
  let scale = if quick then 16 else 20 in
  let rng = Prng.create ~seed:300 () in
  let csr = Kronecker.generate ~scale ~edge_factor:16 rng in
  let w, layout = Graph500.create_from csr (Prng.create ~seed:301 ()) in
  let warmup = Workload.generate w (scale_down 2_000_000) in
  let trace = Workload.generate w (scale_down 2_000_000) in
  let touched =
    (Atp_workloads.Trace.summarize (Array.append warmup trace)).Trace.footprint
  in
  let ram = touched * 520 / 525 in
  figure_sweep
    ~name:
      (Printf.sprintf
         "Figure 1c: graph500 BFS (scale %d, VA %d pages, trace touches %d)"
         scale layout.Graph500.total_pages touched)
    ~exp:"fig1c" ~ram ~tlb_entries:1536 ~warmup ~trace ()

(* ------------------------------------------------------------------ *)
(* A1: decoupling vs physical huge pages across epsilon                *)
(* ------------------------------------------------------------------ *)

let decoupling () =
  header
    "A1: C(Z) vs physical huge pages, across workloads and epsilon \
     (Theorem 4 in practice)";
  let tlb_entries = 512 in
  let warmup_n = scale_down 500_000 and measure_n = scale_down 500_000 in
  let epsilons = [ 0.001; 0.01; 0.1 ] in
  let cost_fields costf =
    List.map
      (fun e ->
        (Printf.sprintf "cost_e%g" e, Json.Float (costf e)))
      epsilons
  in
  let workloads =
    [
      ( "bimodal",
        1 lsl 16,
        fun seed ->
          let rng = Prng.create ~seed () in
          Bimodal.create ~hot_fraction:0.999 ~hot_pages:(1 lsl 11)
            ~virtual_pages:(1 lsl 18) rng );
      ( "graph-walk",
        1 lsl 15,
        fun seed ->
          let rng = Prng.create ~seed () in
          Graph_walk.create ~virtual_pages:(1 lsl 16) rng );
      ( "zipf",
        1 lsl 15,
        fun seed ->
          let rng = Prng.create ~seed () in
          Simple.zipf ~s:0.9 ~virtual_pages:(1 lsl 17) rng );
    ]
  in
  let tasks =
    List.concat_map
      (fun (wname, ram, mk) ->
        let physical h =
          Spec.task ~key:(Printf.sprintf "%s/physical-h%d" wname h) (fun _reg ->
              let w = mk 1 in
              let warmup = Workload.generate w warmup_n in
              let trace = Workload.generate w measure_n in
              let m =
                Machine.create
                  { Machine.default_config with
                    ram_pages = ram; tlb_entries; huge_size = h }
              in
              let c = Machine.run ~warmup m trace in
              Json.Obj
                ([
                   ("ios", Json.Int c.Machine.ios);
                   ("tlb_misses", Json.Int c.Machine.tlb_misses);
                 ]
                @ cost_fields (fun e -> Machine.cost ~epsilon:e c)))
        in
        let decoupled =
          Spec.task ~key:(wname ^ "/decoupled") (fun _reg ->
              let params = Params.derive ~p:ram ~w:64 () in
              let w = mk 1 in
              let warmup = Workload.generate w warmup_n in
              let trace = Workload.generate w measure_n in
              let x =
                Policy.instantiate (module Lru) ~capacity:tlb_entries ()
              in
              let y =
                Policy.instantiate (module Lru)
                  ~capacity:(Params.usable_pages params) ()
              in
              let z = Simulation.create ~params ~x ~y () in
              let r = Simulation.run ~warmup z trace in
              Json.Obj
                ([
                   ("ios", Json.Int r.Simulation.ios);
                   ("tlb_misses", Json.Int r.Simulation.tlb_fills);
                 ]
                @ cost_fields (fun e -> Simulation.cost ~epsilon:e r)
                @ [
                    ("failures", Json.Int r.Simulation.failures_total);
                    ("decode_misses", Json.Int r.Simulation.decoding_misses);
                  ]))
        in
        List.map physical [ 1; 16; 256 ] @ [ decoupled ])
      workloads
  in
  let outcomes =
    run_spec (spec ~name:"decoupling" ~params:[ ("tlb_entries", Json.Int tlb_entries) ] tasks)
  in
  Report.print_table
    ~columns:
      ([
         Report.col_int ~field:"ios" "IOs";
         Report.col_int ~field:"tlb_misses" "TLB misses";
       ]
      @ List.map
          (fun e ->
            Report.col_float
              ~field:(Printf.sprintf "cost_e%g" e)
              (Printf.sprintf "cost(e=%g)" e))
          epsilons
      @ [
          Report.col_int ~width:10 ~field:"failures" "failures";
          Report.col_int ~width:12 ~field:"decode_misses" "decode miss";
        ])
    outcomes

(* ------------------------------------------------------------------ *)
(* A13: empirical Sleator–Tarjan — the competitive frame both halves   *)
(*      of the problem reduce to (Lemma 1)                             *)
(* ------------------------------------------------------------------ *)

let competitive () =
  header
    "A13: empirical competitive ratios vs OPT (Lemma 1's classical paging \
     frame)";
  let n = scale_down 200_000 in
  let k = 256 in
  let adv_trace = Competitive.lru_adversary ~capacity:k ~length:n in
  let traces =
    [
      ( "zipf",
        Workload.generate
          (Simple.zipf ~s:0.9 ~virtual_pages:8_192 (Prng.create ~seed:91 ()))
          n );
      ( "graph-walk",
        Workload.generate
          (Graph_walk.create ~virtual_pages:8_192 (Prng.create ~seed:92 ()))
          n );
      ("adversary", adv_trace);
    ]
  in
  let ratio_task (tname, trace) =
    Spec.task ~key:("ratios/" ^ tname) (fun _reg ->
        Json.Obj
          (List.map
             (fun (module P : Policy.S) ->
               let rng = Prng.create ~seed:93 () in
               ( P.name,
                 Json.Float
                   (Competitive.ratio_vs_opt (module P) ~rng ~capacity:k trace)
               ))
             Registry.all
          @ [
              ( "st_bound",
                Json.Float (Competitive.sleator_tarjan_bound ~k ~h:k) );
            ]))
  in
  (* Resource augmentation: LRU(k) against OPT(h), measured vs bound. *)
  let aug_task h =
    Spec.task ~key:(Printf.sprintf "aug/h=%d" h) (fun _reg ->
        match
          Competitive.augmentation_curve (module Lru) ~k ~hs:[ h ] adv_trace
        with
        | [ (_, measured, bound) ] ->
          Json.Obj
            [ ("measured", Json.Float measured); ("bound", Json.Float bound) ]
        | _ -> failwith "augmentation_curve: expected one row")
  in
  let tasks =
    List.map ratio_task traces
    @ List.map aug_task [ k / 4; k / 2; 3 * k / 4; k ]
  in
  let outcomes =
    run_spec (spec ~name:"competitive" ~params:[ ("k", Json.Int k) ] tasks)
  in
  Report.print_table
    ~columns:
      (List.map
         (fun pname -> Report.col_float ~width:8 ~decimals:2 ~field:pname pname)
         Registry.names
      @ [ Report.col_float ~width:10 ~decimals:0 ~field:"st_bound" "ST bound" ])
    (List.filter (with_prefix "ratios/") outcomes);
  Printf.printf
    "\nLRU(%d) vs OPT(h) with resource augmentation (adversarial trace):\n" k;
  Report.print_table
    ~columns:
      [
        Report.col_float ~decimals:2 ~field:"measured" "measured";
        Report.col_float ~decimals:2 ~field:"bound" "ST bound";
      ]
    (List.filter (with_prefix "aug/") outcomes)

(* ------------------------------------------------------------------ *)
(* A2: balls-and-bins maximum loads (Theorem 2 empirically)            *)
(* ------------------------------------------------------------------ *)

let ballsbins () =
  header "A2: dynamic balls-and-bins maximum loads under churn (Theorem 2)";
  let open Atp_ballsbins in
  let tasks =
    List.map
      (fun (bins, lambda) ->
        Spec.task
          ~key:(Printf.sprintf "n=%d/lam=%d" bins lambda)
          (fun _reg ->
            let m = lambda * bins in
            let steps = scale_down (2 * m) in
            let run mk layers =
              let rng = Prng.create ~seed:7 () in
              let strategy = mk rng in
              let game = Game.create ~layers ~bins () in
              let arng = Prng.create ~seed:11 () in
              let ops = Adversary.churn arng ~m ~steps ~fresh:true in
              (Runner.run ~game ~strategy ops).Runner.max_load_ever
              [@atplint.allow "determinism"]
            in
            let one = run (fun rng -> Strategy.one_choice rng ~bins) 1 in
            let greedy = run (fun rng -> Strategy.greedy rng ~d:2 ~bins) 1 in
            let tau = Strategy.default_tau ~m ~bins in
            let ice = run (fun rng -> Strategy.iceberg rng ~tau ~bins ()) 2 in
            (* Theorem 2's bound: (1 + o(1)) lambda + log log n + O(1). *)
            let bound =
              int_of_float
                (ceil
                   ((1.05 *. float_of_int lambda)
                   +. Float.log2 (Float.max 2.0 (Float.log2 (float_of_int bins)))
                   ))
              + 3
            in
            Json.Obj
              [
                ("steps", Json.Int steps);
                ("one_choice", Json.Int one);
                ("greedy2", Json.Int greedy);
                ("iceberg2", Json.Int ice);
                ("bound", Json.Int bound);
              ]))
      [ (1 lsl 12, 8); (1 lsl 12, 32); (1 lsl 14, 8); (1 lsl 14, 32) ]
  in
  let outcomes = run_spec (spec ~name:"ballsbins" tasks) in
  Report.print_table
    ~columns:
      [
        Report.col_int ~width:12 ~field:"steps" "steps";
        Report.col_int ~width:12 ~field:"one_choice" "one-choice";
        Report.col_int ~width:12 ~field:"greedy2" "greedy[2]";
        Report.col_int ~width:12 ~field:"iceberg2" "iceberg[2]";
        Report.col_int ~width:10 ~field:"bound" "bound";
      ]
    outcomes

(* ------------------------------------------------------------------ *)
(* A3: paging failures vs bucket size (Theorems 1 and 3 constants)     *)
(* ------------------------------------------------------------------ *)

let failures () =
  header "A3: paging failures when buckets shrink below the theorem bound";
  let p = 1 lsl 16 in
  let scheme_name = function
    | Params.One_choice -> "one-choice"
    | Params.Iceberg { d } -> Printf.sprintf "iceberg%d" d
  in
  let tasks =
    List.concat_map
      (fun scheme ->
        let base = Params.derive ~scheme ~p ~w:64 () in
        List.map
          (fun factor ->
            Spec.task
              ~key:(Printf.sprintf "%s/f=%.2f" (scheme_name scheme) factor)
              (fun _reg ->
                let bucket_size =
                  max 1
                    (int_of_float
                       (float_of_int base.Params.bucket_size *. factor))
                in
                let params =
                  { base with
                    Params.bucket_size;
                    buckets = p / bucket_size;
                    tau =
                      (if scheme = Params.One_choice then bucket_size
                       else min base.Params.tau bucket_size);
                  }
                in
                let a = Alloc.create params in
                let budget =
                  min (Params.usable_pages base) (Alloc.frames a * 95 / 100)
                in
                for page = 0 to budget - 1 do
                  ignore (Alloc.insert a page)
                done;
                Json.Obj
                  [
                    ("bucket_size", Json.Int bucket_size);
                    ("factor", Json.Float factor);
                    ("budget", Json.Int budget);
                    ("failures", Json.Int (Alloc.failures_total a));
                    ("max_load", Json.Int (Alloc.max_bucket_load a));
                  ]))
          [ 0.15; 0.3; 0.6; 1.0 ])
      [ Params.One_choice; Params.Iceberg { d = 2 } ]
  in
  let outcomes = run_spec (spec ~name:"failures" ~params:[ ("p", Json.Int p) ] tasks) in
  Report.print_table
    ~columns:
      [
        Report.col_int ~width:8 ~field:"bucket_size" "B";
        Report.col_int ~width:10 ~field:"budget" "budget";
        Report.col_int ~field:"failures" "failures";
        Report.col_int ~field:"max_load" "max load";
      ]
    outcomes

(* ------------------------------------------------------------------ *)
(* A4: the hybrid scheme of Section 8                                  *)
(* ------------------------------------------------------------------ *)

let hybrid () =
  header
    "A4: hybrid decoupling (Section 8) — physical chunks under decoupled \
     fields";
  (* A hot set much larger than the decoupled TLB reach
     (tlb_entries × h_max), so extra coverage has something to buy. *)
  let ram = 1 lsl 16 in
  let tlb_entries = 128 in
  let warmup_n = scale_down 500_000 and measure_n = scale_down 500_000 in
  let mk_workload seed =
    let rng = Prng.create ~seed () in
    Bimodal.create ~hot_fraction:0.999 ~hot_pages:(1 lsl 14)
      ~virtual_pages:(1 lsl 18) rng
  in
  let chunk_task chunk =
    Spec.task ~key:(Printf.sprintf "chunk=%d" chunk) (fun _reg ->
        let h = Hybrid.create ~ram_pages:ram ~chunk ~w:64 ~tlb_entries () in
        let w = mk_workload 1 in
        let warmup = Workload.generate w warmup_n in
        let trace = Workload.generate w measure_n in
        let r = Hybrid.run ~warmup h trace in
        Json.Obj
          [
            ("coverage", Json.Int r.Hybrid.coverage);
            ("ios", Json.Int r.Hybrid.ios);
            ("tlb_misses", Json.Int r.Hybrid.tlb_fills);
            ("cost", Json.Float (Obs.Cost.price ~epsilon (Hybrid.ledger r)));
          ])
  in
  (* Physical huge pages with coverage comparable to chunk=16. *)
  let physical_task =
    Spec.task ~key:"physical-h128" (fun _reg ->
        let w = mk_workload 1 in
        let warmup = Workload.generate w warmup_n in
        let trace = Workload.generate w measure_n in
        let m =
          Machine.create
            { Machine.default_config with
              ram_pages = ram; tlb_entries; huge_size = 128 }
        in
        let c = Machine.run ~warmup m trace in
        Json.Obj
          [
            ("coverage", Json.Int 128);
            ("ios", Json.Int c.Machine.ios);
            ("tlb_misses", Json.Int c.Machine.tlb_misses);
            ("cost", Json.Float (Machine.cost ~epsilon c));
          ])
  in
  let tasks = List.map chunk_task [ 1; 4; 16; 64 ] @ [ physical_task ] in
  let outcomes =
    run_spec
      (spec ~name:"hybrid"
         ~params:
           [ ("ram", Json.Int ram); ("tlb_entries", Json.Int tlb_entries) ]
         tasks)
  in
  Report.print_table
    ~columns:(Report.col_int ~width:10 ~field:"coverage" "coverage" :: cost_columns)
    outcomes

(* ------------------------------------------------------------------ *)
(* A5: measured epsilon — page walks, PWC, huge leaves, virtualization *)
(* ------------------------------------------------------------------ *)

let eps () =
  header
    "A5: the TLB-miss cost epsilon, measured from page walks (bare metal \
     vs nested/virtualized)";
  let io_cycles = 40_000 in
  let accesses = scale_down 200_000 in
  let space_task (sname, space) =
    Spec.task ~key:sname (fun _reg ->
        let rng = Prng.create ~seed:17 () in
        let pt = Page_table.create () in
        let bare = Walker.create pt in
        let nested = Nested.create () in
        for _ = 1 to accesses do
          let v = Prng.int rng space in
          if Page_table.lookup pt v = None then begin
            Page_table.map pt ~vpage:v ~frame:v ();
            Nested.guest_map nested ~gva:v ~gpa:v
          end;
          ignore (Walker.translate bare v);
          ignore (Nested.translate nested v)
        done;
        Json.Obj
          [
            ("bare_walk_cycles", Json.Float (Walker.average_cycles bare));
            ( "bare_eps",
              Json.Float (Walker.epsilon bare ~io_latency_cycles:io_cycles) );
            ("nested_walk_cycles", Json.Float (Nested.average_cycles nested));
            ( "nested_eps",
              Json.Float (Nested.epsilon nested ~io_latency_cycles:io_cycles)
            );
          ])
  in
  (* Huge leaves shorten walks: same sparse space mapped with level-1
     leaves. *)
  let huge_leaf_task =
    Spec.task ~key:"sparse-16M/level1-leaves" (fun _reg ->
        let rng = Prng.create ~seed:18 () in
        let pt = Page_table.create () in
        let w = Walker.create pt in
        for _ = 1 to accesses do
          let v = Prng.int rng (1 lsl 24) in
          let base = v land lnot 511 in
          if Page_table.lookup pt v = None then
            Page_table.map pt ~vpage:base ~frame:base ~level:1 ();
          ignore (Walker.translate w v)
        done;
        Json.Obj
          [
            ("bare_walk_cycles", Json.Float (Walker.average_cycles w));
            ( "bare_eps",
              Json.Float (Walker.epsilon w ~io_latency_cycles:io_cycles) );
          ])
  in
  let tasks =
    List.map space_task [ ("dense-64k", 1 lsl 16); ("sparse-16M", 1 lsl 24) ]
    @ [ huge_leaf_task ]
  in
  let outcomes =
    run_spec
      (spec ~name:"eps" ~params:[ ("io_cycles", Json.Int io_cycles) ] tasks)
  in
  Report.print_table
    ~columns:
      [
        Report.col_float ~width:16 ~field:"bare_walk_cycles" "bare walk(cyc)";
        Report.col_float ~width:16 ~decimals:5 ~field:"bare_eps" "bare eps";
        Report.col_float ~width:16 ~field:"nested_walk_cycles"
          "nested walk(cyc)";
        Report.col_float ~width:16 ~decimals:5 ~field:"nested_eps" "nested eps";
      ]
    outcomes

(* ------------------------------------------------------------------ *)
(* A6: transparent huge pages vs static huge pages vs decoupling       *)
(* ------------------------------------------------------------------ *)

let thp () =
  header "A6: THP (promotion + compaction) vs static huge pages vs decoupled";
  let warmup_n = scale_down 500_000 and measure_n = scale_down 500_000 in
  (* Three hot-set layouts: dense (THP-friendly: whole regions
     promote), sparse (one hot page per region: promotion never
     triggers and large coverage is wasted), and dense under memory
     pressure (promoted regions are evicted whole and re-filled whole:
     THP pays amplification the decoupled scheme avoids). *)
  let mk_dense seed =
    let rng = Prng.create ~seed () in
    Bimodal.create ~hot_fraction:0.999 ~hot_pages:(1 lsl 12)
      ~virtual_pages:(1 lsl 18) rng
  in
  let mk_sparse seed =
    let rng = Prng.create ~seed () in
    let hot = 1 lsl 12 in
    let spread = 64 in
    let virtual_pages = 1 lsl 18 in
    let next () =
      if Prng.float rng < 0.999 then Prng.int rng hot * spread
      else Prng.int rng virtual_pages
    in
    {
      Workload.name = "sparse-bimodal";
      virtual_pages;
      description = "hot pages strided 64 apart";
      next;
    }
  in
  let mk_pressure seed =
    let rng = Prng.create ~seed () in
    Bimodal.create ~hot_fraction:0.98 ~hot_pages:(1 lsl 12)
      ~virtual_pages:(1 lsl 18) rng
  in
  let blocks =
    [
      ("dense", 1 lsl 16, mk_dense);
      ("sparse", 1 lsl 16, mk_sparse);
      ("pressure", 6000, mk_pressure);
    ]
  in
  let traces mk =
    let w = mk 1 in
    (Workload.generate w warmup_n, Workload.generate w measure_n)
  in
  let tasks =
    List.concat_map
      (fun (block, ram, mk) ->
        let static h =
          Spec.task ~key:(Printf.sprintf "%s/static-h%d" block h) (fun _reg ->
              let warmup, trace = traces mk in
              let m =
                Machine.create
                  { Machine.default_config with
                    ram_pages = ram; tlb_entries = 1536; huge_size = h }
              in
              machine_data (Machine.run ~warmup m trace))
        in
        let thp_task =
          (* THP with a Cascade-Lake-style split TLB. *)
          Spec.task ~key:(block ^ "/thp-h512") (fun _reg ->
              let warmup, trace = traces mk in
              let t =
                Thp.create
                  { Thp.default_config with
                    ram_pages = ram; base_tlb_entries = 1536;
                    huge_tlb_entries = 16; huge_size = 512 }
              in
              let c = Thp.run ~warmup t trace in
              Json.Obj
                [
                  ("ios", Json.Int c.Thp.ios);
                  ("tlb_misses", Json.Int c.Thp.tlb_misses);
                  ("promotions", Json.Int c.Thp.promotions);
                  ("cost", Json.Float (Obs.Cost.price ~epsilon (Thp.ledger c)));
                  ("fill_ios", Json.Int c.Thp.promotion_fill_ios);
                  ("compaction", Json.Int c.Thp.compaction_evictions);
                ])
        in
        let superpage_task =
          (* Reservation-based superpages (Navarro et al.). *)
          Spec.task ~key:(block ^ "/superpage-h512") (fun _reg ->
              let warmup, trace = traces mk in
              let sp =
                Superpage.create
                  { Superpage.ram_pages = ram; base_tlb_entries = 1536;
                    huge_tlb_entries = 16; huge_size = 512 }
              in
              let c = Superpage.run ~warmup sp trace in
              Json.Obj
                [
                  ("ios", Json.Int c.Superpage.ios);
                  ("tlb_misses", Json.Int c.Superpage.tlb_misses);
                  ("promotions", Json.Int c.Superpage.promotions);
                  ( "cost",
                    Json.Float (Obs.Cost.price ~epsilon (Superpage.ledger c)) );
                  ("preemptions", Json.Int c.Superpage.preemptions);
                  ("waste", Json.Int (Superpage.reserved_unused_frames sp));
                ])
        in
        let decoupled =
          Spec.task ~key:(block ^ "/decoupled") (fun _reg ->
              let params = Params.derive ~p:ram ~w:64 () in
              let warmup, trace = traces mk in
              let x = Policy.instantiate (module Lru) ~capacity:1536 () in
              let y =
                Policy.instantiate (module Lru)
                  ~capacity:(Params.usable_pages params) ()
              in
              let z = Simulation.create ~params ~x ~y () in
              let r = Simulation.run ~warmup z trace in
              Json.Obj
                [
                  ("ios", Json.Int r.Simulation.ios);
                  ("tlb_misses", Json.Int r.Simulation.tlb_fills);
                  ("cost", Json.Float (Simulation.cost ~epsilon r));
                ])
        in
        List.map static [ 1; 64; 512 ]
        @ [ thp_task; superpage_task; decoupled ])
      blocks
  in
  let outcomes = run_spec (spec ~name:"thp" tasks) in
  Report.print_table
    ~columns:
      [
        Report.col_int ~width:12 ~field:"ios" "IOs";
        Report.col_int ~width:12 ~field:"tlb_misses" "TLB misses";
        Report.col_int ~width:12 ~field:"promotions" "promotions";
        Report.col_float ~field:"cost" "cost(e=0.01)";
        Report.col_int ~width:10 ~field:"fill_ios" "fill-ios";
        Report.col_int ~width:10 ~field:"preemptions" "preempt";
      ]
    outcomes

(* ------------------------------------------------------------------ *)
(* A10: the full bill — cycles per access through the whole VMM        *)
(* ------------------------------------------------------------------ *)

let vmm () =
  header
    "A10: end-to-end cycles per access (TLB + page walks + swap) through \
     the full VMM";
  let n = scale_down 500_000 in
  let pages = 1 lsl 14 in
  let vmm_task (tlb, ram) =
    Spec.task ~key:(Printf.sprintf "tlb=%d/ram=%d" tlb ram) (fun _reg ->
        let vm =
          Vmm.create
            { Vmm.default_config with ram_pages = ram; tlb_entries = tlb }
        in
        Vmm.mmap vm ~start:0 ~pages;
        let rng = Prng.create ~seed:51 () in
        let zipf = Sampler.zipf ~s:0.9 ~n:pages in
        (* warmup *)
        for _ = 1 to n / 2 do
          Vmm.read vm (zipf rng)
        done;
        Vmm.reset_counters vm;
        for _ = 1 to n do
          if Prng.float rng < 0.1 then Vmm.write vm (zipf rng)
          else Vmm.read vm (zipf rng)
        done;
        let c = Vmm.counters vm in
        Json.Obj
          [
            ( "tlb_miss_pct",
              Json.Float
                (100.0 *. float_of_int c.Vmm.tlb_misses
                /. float_of_int c.Vmm.accesses) );
            ("majors", Json.Int c.Vmm.major_faults);
            ("cyc_per_access", Json.Float (Vmm.average_cycles_per_access vm));
            ( "translation_pct",
              Json.Float (100.0 *. Vmm.translation_fraction vm) );
          ])
  in
  (* The decoupled TLB in the same cycle terms: a TLB miss costs one
     psi-table access plus the constant-time decode, not a 4-level
     radix walk — the paper's constant-time property priced out. *)
  let decoupled_task =
    Spec.task ~key:"decoupled/tlb=512" (fun _reg ->
        let params = Params.derive ~p:(1 lsl 14) ~w:64 () in
        let x = Policy.instantiate (module Lru) ~capacity:512 () in
        let y =
          Policy.instantiate (module Lru)
            ~capacity:(Params.usable_pages params) ()
        in
        let z = Simulation.create ~params ~x ~y () in
        let rng = Prng.create ~seed:51 () in
        let zipf = Sampler.zipf ~s:0.9 ~n:(1 lsl 14) in
        for _ = 1 to n / 2 do
          Simulation.access z (zipf rng)
        done;
        Simulation.reset_report z;
        for _ = 1 to n do
          Simulation.access z (zipf rng)
        done;
        let r = Simulation.report z in
        let memory_latency = Walker.default_config.Walker.memory_latency in
        let decode_cycles = 4 in
        let cycles =
          r.Simulation.accesses
          + (r.Simulation.tlb_fills * (memory_latency + decode_cycles))
        in
        Json.Obj
          [
            ( "tlb_miss_pct",
              Json.Float
                (100.0 *. float_of_int r.Simulation.tlb_fills
                /. float_of_int r.Simulation.accesses) );
            ( "cyc_per_access",
              Json.Float
                (float_of_int cycles /. float_of_int r.Simulation.accesses) );
          ])
  in
  let tasks =
    List.map vmm_task
      [
        (64, 1 lsl 14); (512, 1 lsl 14); (4096, 1 lsl 14);
        (512, 1 lsl 12); (512, 1 lsl 13);
      ]
    @ [ decoupled_task ]
  in
  let outcomes = run_spec (spec ~name:"vmm" tasks) in
  Report.print_table
    ~columns:
      [
        Report.col_float ~decimals:2 ~field:"tlb_miss_pct" "tlb miss%";
        Report.col_int ~field:"majors" "majors";
        Report.col_float ~field:"cyc_per_access" "cyc/access";
        Report.col_float ~width:16 ~field:"translation_pct" "translation %";
      ]
    outcomes

(* ------------------------------------------------------------------ *)
(* A7: per-core TLBs and shootdowns                                    *)
(* ------------------------------------------------------------------ *)

let smp () =
  header "A7: multi-core TLBs — shared vs partitioned working sets";
  let n = scale_down 1_000_000 in
  let rng = Prng.create ~seed:23 () in
  let zipf = Simple.zipf ~s:0.9 ~virtual_pages:(1 lsl 14) rng in
  let warmup = Workload.generate zipf n in
  let trace = Workload.generate zipf n in
  (* Per-core TLB reach at or above RAM capacity, so eviction victims
     are actually cached somewhere and shootdowns have teeth (RAM here
     is the constrained resource). *)
  let cfg cores =
    { Machine.default_config with
      cores;
      ram_pages = 1 lsl 9;
      tlb_entries = 1536 / cores;
    }
  in
  let smp_data (c : Machine.counters) =
    Json.Obj
      [
        ("tlb", Json.Int c.Machine.tlb_misses);
        ("ios", Json.Int c.Machine.ios);
        ("ipis", Json.Int c.Machine.ipis);
      ]
  in
  let tasks =
    List.concat_map
      (fun cores ->
        [
          Spec.task ~key:(Printf.sprintf "cores=%d/shared" cores) (fun _reg ->
              smp_data (Machine.run ~warmup (Machine.create (cfg cores)) trace));
          Spec.task
            ~key:(Printf.sprintf "cores=%d/partitioned" cores)
            (fun _reg ->
              smp_data
                (Machine.run_partitioned ~warmup
                   (Machine.create (cfg cores))
                   trace));
          (* Decoupling under per-core TLBs: hardware entries are
             copies, so a residency change to a remotely covered huge
             page costs an update notification — the concurrency price
             of ψ sharing. *)
          Spec.task ~key:(Printf.sprintf "cores=%d/decoupled" cores)
            (fun _reg ->
              let params = Params.derive ~p:(1 lsl 9) ~w:64 () in
              let y =
                Policy.instantiate (module Lru)
                  ~capacity:(Params.usable_pages params) ()
              in
              let t =
                Smp_decoupled.create ~params ~cores
                  ~tlb_entries_per_core:(1536 / cores) ~y ()
              in
              let r = Smp_decoupled.run_shared ~warmup t trace in
              Json.Obj
                [
                  ("tlb", Json.Int r.Smp_decoupled.tlb_fills);
                  ("ios", Json.Int r.Smp_decoupled.ios);
                  ("ipis", Json.Int r.Smp_decoupled.psi_update_ipis);
                  ("decode_misses", Json.Int r.Smp_decoupled.decoding_misses);
                ]);
        ])
      [ 1; 2; 4; 8 ]
  in
  let outcomes = run_spec (spec ~name:"smp" tasks) in
  Report.print_table
    ~columns:
      [
        Report.col_int ~width:12 ~field:"tlb" "TLB events";
        Report.col_int ~width:10 ~field:"ios" "IOs";
        Report.col_int ~width:10 ~field:"ipis" "IPIs";
        Report.col_int ~width:12 ~field:"decode_misses" "decode miss";
      ]
    outcomes

(* ------------------------------------------------------------------ *)
(* A8: miss-ratio curves (how RAM sizes are chosen)                    *)
(* ------------------------------------------------------------------ *)

let mrc () =
  header "A8: single-pass LRU miss-ratio curves (Mattson stack distances)";
  let n = scale_down 1_000_000 in
  let capacities = [ 256; 1024; 4096; 16384; 65536 ] in
  let workloads =
    [
      ( "bimodal",
        fun () ->
          let rng = Prng.create ~seed:31 () in
          Bimodal.create ~hot_fraction:0.999 ~hot_pages:(1 lsl 11)
            ~virtual_pages:(1 lsl 18) rng );
      ( "graph-walk",
        fun () ->
          let rng = Prng.create ~seed:32 () in
          Graph_walk.create ~virtual_pages:(1 lsl 16) rng );
      ( "zipf",
        fun () ->
          let rng = Prng.create ~seed:33 () in
          Simple.zipf ~s:0.9 ~virtual_pages:(1 lsl 17) rng );
    ]
  in
  let tasks =
    List.map
      (fun (wname, mk) ->
        Spec.task ~key:wname (fun _reg ->
            let trace = Workload.generate (mk ()) n in
            let m = Mattson.of_trace trace in
            Json.Obj
              ([
                 ( "ws999",
                   Json.Int (Mattson.working_set_size m ~fraction:0.999) );
                 ("cold", Json.Int (Mattson.cold_misses m));
               ]
              @ List.map
                  (fun c ->
                    (Printf.sprintf "c%d" c, Json.Int (Mattson.misses m c)))
                  capacities)))
      workloads
  in
  let outcomes = run_spec (spec ~name:"mrc" tasks) in
  Report.print_table
    ~columns:
      ([
         Report.col_int ~width:12 ~field:"ws999" "ws(99.9%)";
         Report.col_int ~width:10 ~field:"cold" "cold";
       ]
      @ List.map
          (fun c ->
            Report.col_int ~width:9
              ~field:(Printf.sprintf "c%d" c)
              (Printf.sprintf "c=%d" c))
          capacities)
    outcomes

(* ------------------------------------------------------------------ *)
(* B1: core microbenchmarks (Bechamel)                                 *)
(* ------------------------------------------------------------------ *)

(* One Test.make per core operation and per figure pipeline step.  The
   committed BENCH_core.json baseline records the rows;
   tools/bench_compare diffs a fresh --quick run against it. *)
let core () =
  header "B1: core microbenchmarks (ns per operation, OLS fit)";
  let task =
    Spec.task ~key:"bechamel" (fun _reg ->
        let open Bechamel in
        let open Toolkit in
        let lru_test =
          let inst = Policy.instantiate (module Lru) ~capacity:4096 () in
          let rng = Prng.create ~seed:1 () in
          Test.make ~name:"lru-access"
            (Staged.stage (fun () ->
                 ignore (inst.Policy.access (Prng.int rng 16_384))))
        in
        let tlb_test =
          let tlb = Atp_tlb.Tlb.create ~entries:1536 () in
          let rng = Prng.create ~seed:2 () in
          Test.make ~name:"tlb-lookup+fill"
            (Staged.stage (fun () ->
                 let u = Prng.int rng 8192 in
                 match Atp_tlb.Tlb.lookup tlb u with
                 | Some _ -> ()
                 | None -> ignore (Atp_tlb.Tlb.insert tlb u u)))
        in
        let alloc_test =
          let params = Params.derive ~p:(1 lsl 16) ~w:64 () in
          let a = Alloc.create params in
          let budget = Params.usable_pages params in
          let rng = Prng.create ~seed:3 () in
          Test.make ~name:"iceberg-churn"
            (Staged.stage (fun () ->
                 let page = Prng.int rng (1 lsl 18) in
                 if Alloc.mem a page then Alloc.delete a page
                 else if Alloc.live a < budget then ignore (Alloc.insert a page)))
        in
        let decode_test =
          let params = Params.derive ~p:(1 lsl 16) ~w:64 () in
          let a = Alloc.create params in
          let e = Encoding.create a in
          let value = Encoding.empty_value e in
          for i = 0 to Encoding.h_max e - 1 do
            ignore (Alloc.insert a i);
            Encoding.refresh_page e value i
          done;
          let rng = Prng.create ~seed:4 () in
          Test.make ~name:"tlb-decode-f"
            (Staged.stage (fun () ->
                 ignore
                   (Encoding.decode e (Prng.int rng (Encoding.h_max e)) value)))
        in
        let machine_test =
          let m =
            Machine.create
              { Machine.default_config with
                ram_pages = 1 lsl 14; tlb_entries = 512; huge_size = 8 }
          in
          let rng = Prng.create ~seed:5 () in
          Test.make ~name:"machine-access(fig1-step)"
            (Staged.stage (fun () ->
                 Machine.access m ~core:0 (Prng.int rng (1 lsl 16))))
        in
        let sim_test =
          let params = Params.derive ~p:(1 lsl 14) ~w:64 () in
          let x = Policy.instantiate (module Lru) ~capacity:512 () in
          let y =
            Policy.instantiate (module Lru)
              ~capacity:(Params.usable_pages params) ()
          in
          let z = Simulation.create ~seed:7 ~params ~x ~y () in
          let rng = Prng.create ~seed:6 () in
          Test.make ~name:"simulation-access(Z-step)"
            (Staged.stage (fun () ->
                 Simulation.access z (Prng.int rng (1 lsl 16))))
        in
        let tests =
          [ lru_test; tlb_test; alloc_test; decode_test; machine_test; sim_test ]
        in
        let grouped = Test.make_grouped ~name:"core" tests in
        let ols =
          Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
        in
        let instances = Instance.[ monotonic_clock ] in
        let cfg =
          Benchmark.cfg ~limit:2000
            ~quota:(Time.second (if quick then 0.25 else 0.5))
            ~kde:(Some 1000) ()
        in
        let raw = Benchmark.all cfg instances grouped in
        let results = List.map (fun i -> Analyze.all ols i raw) instances in
        let merged = Analyze.merge ols instances results in
        let rows = ref [] in
        Hashtbl.iter
          (fun measure per_test ->
            if String.equal measure (Measure.label Instance.monotonic_clock)
            then
              Hashtbl.iter
                (fun name ols_result ->
                  match Analyze.OLS.estimates ols_result with
                  | Some [ est ] -> rows := (name, Json.Float est) :: !rows
                  | _ -> rows := (name, Json.Null) :: !rows)
                per_test)
          merged;
        Json.Obj
          (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows))
  in
  let outcomes = run_spec (spec ~name:"core" [ task ]) in
  List.iter
    (fun o ->
      match Outcome.data o with
      | Some (Json.Obj fields) ->
        List.iter
          (fun (name, v) ->
            match Json.as_float v with
            | Some est -> Printf.printf "%-36s %12.1f ns/op\n" name est
            | None -> Printf.printf "%-36s %12s\n" name "n/a")
          fields
      | Some _ -> ()
      | None ->
        Printf.printf "bechamel FAILED: %s\n"
          (match Outcome.error o with Some (e, _) -> e | None -> "unknown"))
    outcomes

(* ------------------------------------------------------------------ *)
(* engine: sharded streaming replay vs exact sequential replay         *)
(* ------------------------------------------------------------------ *)

(* The scaling experiment behind atp.engine: pack a Kronecker BFS
   trace into the streamed format, replay it once sequentially for
   ground truth, then replay it sharded at increasing shard counts.
   Rows carry the totals, the relative cost error versus sequential
   (the documented bound), and the wall-clock speedup; CI validates
   the stream with tools/bench_validate and keeps it as an artifact. *)
let engine_exp () =
  header "engine: sharded streaming replay vs exact sequential replay";
  let module Engine = Atp_engine.Engine in
  let n = scale_down 2_000_000 in
  let epoch_len = max 1 (n / 16) in
  (* The workload footprint must exceed the cache capacities below so
     the replay has steady-state miss traffic and a warm-up window one
     epoch long can fill both caches (the adequacy condition from
     lib/engine/engine.mli); otherwise the relative error is dominated
     by cold-cache re-faulting of a tiny baseline.  This is the regime
     test/test_engine.ml measures the documented bound under. *)
  let virtual_pages = 1 lsl 16 in
  let path = Filename.temp_file "atp_bench_engine" ".atps" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let wl = Simple.zipf ~virtual_pages (Prng.create ~seed:31 ()) in
      Trace.Stream.with_writer path (fun w ->
          for _ = 1 to n do
            Trace.Stream.push w (wl.Workload.next ())
          done);
      let ram = 1 lsl 11 in
      let params = Params.derive ~p:ram ~w:64 () in
      let make_sim () =
        let x =
          Policy.instantiate (module Lru)
            ~rng:(Prng.create ~seed:11 ())
            ~capacity:64 ()
        in
        let y =
          Policy.instantiate (module Lru)
            ~rng:(Prng.create ~seed:13 ())
            ~capacity:256 ()
        in
        Simulation.create ~seed:7 ~params ~x ~y ()
      in
      let replay ?obs config =
        Engine.replay ?obs ~config ~make_sim (Engine.source_of_stream path)
      in
      (* One epoch, no warm-up: the exact sequential replay. *)
      let sequential = { Engine.shards = 1; epoch_len = n; warmup = 0 } in
      (* Best wall clock of three replays, obs on the first only: a
         quick-mode replay takes a fraction of a second, short enough
         for scheduler noise on a shared host to swing one timing by a
         quarter. *)
      let best_of_3 ?obs config =
        let time obs =
          let t0 = Atp_exp.Runner.wall_clock () in
          let totals = replay ?obs config in
          (totals, Atp_exp.Runner.wall_clock () -. t0)
        in
        let totals, w1 = time obs in
        let _, w2 = time None in
        let _, w3 = time None in
        (totals, Float.min w1 (Float.min w2 w3))
      in
      let baseline, seq_wall = best_of_3 sequential in
      let cost t = Obs.Cost.price ~epsilon (Engine.ledger t) in
      let base_cost = cost baseline in
      let row (t : Engine.totals) ~wall =
        let cost = cost t in
        let rel_err =
          if base_cost = 0. then 0. else abs_float (cost -. base_cost) /. base_cost
        in
        Json.Obj
          [
            ("ios", Json.Int t.Engine.ios);
            ("tlb_misses", Json.Int t.Engine.tlb_fills);
            ("decoding_misses", Json.Int t.Engine.decoding_misses);
            ("cost", Json.Float cost);
            ("rel_err", Json.Float rel_err);
            ("epochs", Json.Int t.Engine.epochs);
            ("warmup_discarded", Json.Int t.Engine.warmup_replayed);
            ("wall", Json.Float wall);
            ("refs_per_sec",
             Json.Float (if wall > 0. then float_of_int n /. wall else 0.));
            (* Wall-clock ratio against the sequential replay of the
               same stream: machine-portable, unlike ns/op, so the CI
               regression gate compares this field. *)
            ("speedup", Json.Float (if wall > 0. then seq_wall /. wall else 0.));
          ]
      in
      (* The reference replays above set [base_cost] and [seq_wall];
         this row replays again inside its own task, so the runner's
         wall_s covers it. *)
      let seq_task =
        Spec.task ~key:"sequential" (fun _reg ->
            let totals, wall = best_of_3 sequential in
            if totals <> baseline then
              failwith "sequential replay is not deterministic";
            row totals ~wall)
      in
      let sharded_task shards =
        Spec.task ~key:(Printf.sprintf "shards=%d" shards) (fun reg ->
            let totals, wall =
              best_of_3
                ~obs:(Obs.Scope.v ~prefix:"engine" reg)
                { Engine.shards; epoch_len; warmup = epoch_len }
            in
            row totals ~wall)
      in
      (* One task at a time: each row's wall clock, and so its
         speedup, must not include its siblings' work. *)
      let outcomes =
        run_spec ~domains:1
          (spec ~name:"engine"
             ~params:
               [
                 ("n", Json.Int n);
                 ("epoch_len", Json.Int epoch_len);
                 ("virtual_pages", Json.Int virtual_pages);
                 ("ram", Json.Int ram);
                 ("error_bound", Json.Float Engine.documented_error_bound);
               ]
             (seq_task :: List.map sharded_task [ 1; 2; 4; 8 ]))
      in
      Report.print_table
        ~columns:
          [
            Report.col_int ~field:"ios" "IOs";
            Report.col_int ~field:"tlb_misses" "TLB misses";
            Report.col_float ~decimals:1 ~field:"cost" "cost(e=0.01)";
            Report.col_float ~decimals:4 ~field:"rel_err" "rel err";
            Report.col_int ~field:"epochs" "epochs";
            Report.col_float ~decimals:2 ~field:"wall" "wall (s)";
            Report.col_float ~decimals:2 ~field:"speedup" "speedup";
          ]
        outcomes;
      Printf.printf
        "\nsharded totals must stay within %.0f%% of sequential cost \
         (documented bound; exact when warm-up covers each epoch prefix).\n"
        (100. *. Engine.documented_error_bound))

(* ------------------------------------------------------------------ *)
(* B5: cache-backed translation reach (Victima) vs decoupling          *)
(* ------------------------------------------------------------------ *)

(* Victima's observation restated in the paper's cost model: parking
   TLB-evicted translations in the cache hierarchy re-prices some
   ε-misses at tcache_ε < ε without touching placement, whereas
   decoupling attacks the same ε·misses term by shrinking the miss
   count.  A recovered miss is priced the way atsim's --tcache-latency
   conversion does: one cache probe against a full radix walk. *)
let reach () =
  header
    "B5: cache-backed translation reach (Victima-style victim store) vs \
     decoupling";
  let tlb_entries = 512 in
  let tcache_entries = 4096 in
  let tcache_latency = Walker.default_config.Walker.tcache_latency in
  let tcache_epsilon = Walker.tcache_epsilon ~epsilon ~tcache_latency in
  let warmup_n = scale_down 400_000 and measure_n = scale_down 400_000 in
  let workloads =
    [
      ( "bimodal",
        1 lsl 16,
        fun seed ->
          let rng = Prng.create ~seed () in
          Bimodal.create ~hot_fraction:0.999 ~hot_pages:(1 lsl 11)
            ~virtual_pages:(1 lsl 18) rng );
      ( "graph-walk",
        1 lsl 15,
        fun seed ->
          let rng = Prng.create ~seed () in
          Graph_walk.create ~virtual_pages:(1 lsl 16) rng );
      ( "zipf",
        1 lsl 15,
        fun seed ->
          let rng = Prng.create ~seed () in
          Simple.zipf ~s:0.9 ~virtual_pages:(1 lsl 17) rng );
    ]
  in
  (* Every row prices its machine's ledger the same way; [extra]
     columns sit between the counts and the cost. *)
  let ledger_row ?(extra = []) (l : Obs.Cost.t) =
    Json.Obj
      ([
         ("ios", Json.Int l.ios);
         ("tlb_events", Json.Int l.tlb);
         ("cheap_events", Json.Int l.cheap);
       ]
      @ extra
      @ [ ("cost", Json.Float (Obs.Cost.price ~tcache_epsilon ~epsilon l)) ])
  in
  let scheme_task ~wname ~mk ~key scheme_of =
    Spec.task ~key:(wname ^ "/" ^ key) (fun _reg ->
        let w = mk 1 in
        let warmup = Workload.generate w warmup_n in
        let trace = Workload.generate w measure_n in
        ledger_row ((Scheme.run ~warmup (scheme_of ()) trace).Scheme.ledger ()))
  in
  let workload_tasks =
    List.concat_map
      (fun (wname, ram, mk) ->
        [
          scheme_task ~wname ~mk ~key:"physical" (fun () ->
              Scheme.physical ~tlb_entries ~ram_pages:ram ~huge_size:1 ());
          scheme_task ~wname ~mk ~key:"reach" (fun () ->
              Scheme.physical_reach ~tlb_entries ~ram_pages:ram ~huge_size:1
                ~tcache_entries ());
          (* An upper bound for reach extension: what if every victim-
             store entry were a real (free) TLB entry instead?  The gap
             between this row and "reach" is the tcache_ε the store
             still charges. *)
          scheme_task ~wname ~mk ~key:"bigtlb" (fun () ->
              Scheme.physical
                ~tlb_entries:(tlb_entries + tcache_entries)
                ~ram_pages:ram ~huge_size:1 ());
          scheme_task ~wname ~mk ~key:"decoupled" (fun () ->
              Scheme.decoupled ~tlb_entries ~ram_pages:ram ~w:64 ());
        ])
      workloads
  in
  (* The same decoupling-vs-reach question on shared-RAM multicore.
     The per-core TLB must be the constrained resource here: when RAM
     is, shootdowns clear dead entries out of every TLB before LRU can
     evict a live one, the victim store never fills, and the tier is
     inert.  With small TLBs over a mostly-resident working set, live
     victims stream through the shared store — and shootdowns must
     reach into it, so its hits survive only as long as the mapping
     does. *)
  let smp_tasks =
    let cores = 4 in
    List.map
      (fun (key, tc) ->
        Spec.task ~key:("smp4/" ^ key) (fun _reg ->
            let rng = Prng.create ~seed:23 () in
            let zipf = Simple.zipf ~s:0.9 ~virtual_pages:(1 lsl 14) rng in
            let warmup = Workload.generate zipf warmup_n in
            let trace = Workload.generate zipf measure_n in
            let cfg =
              { Machine.default_config with
                cores;
                ram_pages = 1 lsl 12;
                tlb_entries = 96;
                tcache_entries = tc;
              }
            in
            let c = Machine.run ~warmup (Machine.create cfg) trace in
            let l = Machine.ledger c in
            ledger_row
              ~extra:
                [
                  ("ipis", Json.Int l.ipis);
                  ("shootdowns", Json.Int c.Machine.shootdowns);
                ]
              l))
      [ ("base", 0); ("reach", tcache_entries) ]
  in
  let outcomes =
    run_spec
      (spec ~name:"reach"
         ~params:
           [
             ("tlb_entries", Json.Int tlb_entries);
             ("tcache_entries", Json.Int tcache_entries);
             ("tcache_latency", Json.Int tcache_latency);
             ("tcache_epsilon", Json.Float tcache_epsilon);
           ]
         (workload_tasks @ smp_tasks))
  in
  Report.print_table
    ~columns:
      [
        Report.col_int ~field:"ios" "IOs";
        Report.col_int ~width:12 ~field:"tlb_events" "full misses";
        Report.col_int ~width:12 ~field:"cheap_events" "recovered";
        Report.col_int ~width:8 ~field:"ipis" "IPIs";
        Report.col_int ~width:11 ~field:"shootdowns" "shootdowns";
        Report.col_float ~decimals:1 ~field:"cost" "cost(e=0.01)";
      ]
    outcomes;
  Printf.printf
    "\nrecovered misses are billed at tcache_e = %.5f (one %d-cycle cache \
     probe vs a %d-cycle radix walk); `bigtlb` is the free-reach upper \
     bound.\n"
    tcache_epsilon tcache_latency
    (Page_table.levels * Walker.default_config.Walker.memory_latency)

let experiments =
  [
    ("fig1a", fig1a);
    ("fig1b", fig1b);
    ("fig1c", fig1c);
    ("decoupling", decoupling);
    ("ballsbins", ballsbins);
    ("failures", failures);
    ("hybrid", hybrid);
    ("eps", eps);
    ("vmm", vmm);
    ("thp", thp);
    ("smp", smp);
    ("mrc", mrc);
    ("competitive", competitive);
    ("engine", engine_exp);
    ("core", core);
    ("reach", reach);
  ]

let () =
  let to_run =
    if !requested = [] then experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
        !requested
  in
  Printf.printf "atp benchmark harness%s\n" (if quick then " (quick mode)" else "");
  List.iter (fun (_, f) -> f ()) to_run;
  Printf.printf "\n%s\ndone.\n" hline
