open Atp_core
module Machine = Atp_memsim.Machine
module Trace = Atp_workloads.Trace
module Workload = Atp_workloads.Workload

type ctx = { atsim : string; dir : string; deadline : float }

type metric = {
  name : string;
  unit : string;
  value : float;
  median : float;
  q1 : float;
  q3 : float;
  n : int;
}

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  errors : string list;
}

let setup_runs = 15

let min_timed_runs = 5

(* A child still running after this long is killed and counted as a
   failed run.  The alarm is never shortened to fit the deadline, so a
   run is only ever failed for its own time. *)
let child_timeout_s = 120

(* --- statistics, as Python's statistics.median and quantiles(n=4) -- *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let m = Array.length a in
  if m = 0 then nan
  else if m mod 2 = 1 then a.(m / 2)
  else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

(* The "exclusive" method: cut points at i(m+1)/4. *)
let quartiles xs =
  let a = sorted xs in
  let m = Array.length a in
  if m = 0 then (nan, nan)
  else if m = 1 then (a.(0), a.(0))
  else
    let cut i =
      let j = max 1 (min (m - 1) (i * (m + 1) / 4)) in
      let delta = float_of_int ((i * (m + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (cut 1, cut 3)

let summary name unit xs =
  let q1, q3 = quartiles xs and m = median xs in
  { name; unit; value = m; median = m; q1; q3; n = List.length xs }

let single name unit v = summary name unit [ v ]

(* --- one child run ------------------------------------------------- *)

type attempt = { res : Proc.result; out : string; json : string }

let read_file path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

let remove path = if Sys.file_exists path then Sys.remove path

let attempt ctx ~tag command ~trace =
  let file ext = Filename.concat ctx.dir (tag ^ ext) in
  let json = file ".json" in
  remove json;
  remove (json ^ ".ckpt");
  let res =
    Proc.run ~timeout_s:child_timeout_s ~stdout:(file ".out")
      ~stderr:(file ".err") ctx.atsim
      (Workloads.args command ~trace ~json)
  in
  { res; out = read_file (file ".out"); json = read_file json }

(* --- checks against in-process replays ----------------------------- *)

let ( let* ) = Result.bind

let cost (t : Output.totals) =
  float_of_int t.ios
  +. (Workloads.epsilon *. float_of_int (t.tlb_fills + t.decoding_misses))

(* Epochs, and warm-up references replayed before epochs 1 .. n-1. *)
let engine_shape ~refs ~epoch ~shard_warmup =
  let epochs = (refs + epoch - 1) / epoch in
  let warm = ref 0 in
  for e = 1 to epochs - 1 do
    warm := !warm + min shard_warmup (e * epoch)
  done;
  (epochs, !warm)

(* Ok rel_err.  An exact configuration must reproduce [exp] field for
   field; the others must stay within [bound]. *)
let check_decoupled ~bound ~epoch ~shard_warmup ~refs
    (exp : Simulation.report) text =
  let* d = Output.decoupled text in
  let t = d.totals in
  let epochs, warm = engine_shape ~refs ~epoch ~shard_warmup in
  let c_exact = Simulation.cost ~epsilon:Workloads.epsilon exp in
  let rel_err = Float.abs (cost t -. c_exact) /. c_exact in
  if t.accesses <> refs || t.epochs <> epochs || t.warmup_replayed <> warm
  then
    Error
      (Printf.sprintf
         "accesses=%d epochs=%d warmup-replayed=%d, expected %d %d %d"
         t.accesses t.epochs t.warmup_replayed refs epochs warm)
  else if Printf.sprintf "%.2f" (cost t) <> Printf.sprintf "%.2f" d.cost then
    Error "printed C(Z) disagrees with the printed totals"
  else if epochs <= 1 || shard_warmup >= (epochs - 1) * epoch then
    if
      d.exact && t.ios = exp.ios && t.tlb_fills = exp.tlb_fills
      && t.decoding_misses = exp.decoding_misses
      && t.failures = exp.failures_total
      && t.max_bucket_load = exp.max_bucket_load
    then Ok rel_err
    else
      Error
        (Format.asprintf "totals differ from the exact replay (%a)"
           Simulation.pp_report exp)
  else if (not d.exact) && rel_err <= bound then Ok rel_err
  else Error (Printf.sprintf "rel_err %.4g beyond the bound" rel_err)

(* Machine.run as [atsim sweep] runs each checked size, timed. *)
let machine_rows { Workloads.warmup; accesses } ~trace =
  let w = Trace.workload_of_file trace in
  let pre = Workload.generate w warmup in
  let refs = Workload.generate w accesses in
  List.map
    (fun h ->
      let m =
        Machine.create
          {
            Machine.default_config with
            ram_pages = Workloads.z.p;
            tlb_entries = Workloads.z.tlb;
            huge_size = h;
            epsilon = Workloads.epsilon;
            tcache_entries = 0;
          }
      in
      let t0 = Proc.now () in
      let c = Machine.run ~warmup:pre m refs in
      (h, c, Proc.now () -. t0))
    Workloads.checked_sizes

(* The sweep prints costs with %.12g. *)
let same_cost a b = Float.equal (float_of_string (Printf.sprintf "%.12g" a)) b

let check_rows ~expected ~reference (rows : Output.row list) =
  let key (r : Output.row) = (r.h, r.ios, r.tlb_misses, r.cost) in
  let matches (h, (c : Machine.counters), _) =
    List.exists
      (fun (r : Output.row) ->
        r.h = h && r.ios = c.ios && r.tlb_misses = c.tlb_misses
        && same_cost (Machine.cost ~epsilon:Workloads.epsilon c) r.cost)
      rows
  in
  if List.map (fun (r : Output.row) -> r.h) rows <> Workloads.sizes then
    Error "sweep rows do not cover the huge-page sizes"
  else if not (List.for_all matches expected) then
    Error "sweep rows differ from Machine.run"
  else
    match reference with
    | Some first when List.map key first <> List.map key rows ->
      Error "sweep rows differ between runs"
    | _ -> Ok 0.

(* The in-process replay runs at most once, when the first run that
   exited 0 is checked; an input it cannot read fails every run instead
   of stopping the harness. *)
let expected f =
  let r =
    lazy
      (try Ok (f ())
       with e -> Error ("in-process replay: " ^ Printexc.to_string e))
  in
  fun () -> Lazy.force r

(* A checker for the runs of [command] on [trace]: a non-zero exit or a
   wrong output is an [Error], otherwise [Ok rel_err]. *)
let checker ?(bound = Atp_engine.Engine.documented_error_bound) command
    ~trace ~refs =
  let verdict =
    match command with
    | Workloads.Decoupled { epoch; shard_warmup; _ } ->
      let exp = expected (fun () -> fst (Layered.simulate Workloads.z trace)) in
      fun a ->
        let* exp = exp () in
        check_decoupled ~bound ~epoch ~shard_warmup ~refs exp a.out
    | Workloads.Sweep sweep ->
      let exp = expected (fun () -> machine_rows sweep ~trace) in
      let reference = ref None in
      fun a ->
        let* expected = exp () in
        let* rows = Output.sweep_rows a.json in
        let* e = check_rows ~expected ~reference:!reference rows in
        if !reference = None then reference := Some rows;
        Ok e
  in
  fun a ->
    if Proc.ok a.res then verdict a
    else Error ("atsim " ^ Proc.describe a.res)

type input = { trace : string; one : string; digest : string }

let input ctx (w : Workloads.t) ~seed =
  let path suffix = Filename.concat ctx.dir (w.name ^ suffix) in
  let trace = path ".atps" and one = path "-one.atps" in
  let digest = Gen.write w.input ~seed ~n:w.refs trace in
  ignore (Gen.write w.input ~seed ~n:1 one);
  { trace; one; digest }

let tally verdicts =
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) verdicts
  in
  (List.length verdicts, List.length errors, errors)

(* --- the timed run: end-to-end metrics ----------------------------- *)

let timed ctx (w : Workloads.t) { trace; one; _ } ~seconds =
  let setup_cmd = Workloads.setup_command w.command in
  let setup () = attempt ctx ~tag:"setup" setup_cmd ~trace:one in
  let warm = attempt ctx ~tag:"warmup" w.command ~trace in
  let t0 = Proc.now () in
  (* A set-up run before each timed run: the host's speed drifts over
     seconds, so set-up runs made in one burst would all sample the same
     moment of it. *)
  let rec loop setups runs k =
    let now = Proc.now () in
    if (k >= min_timed_runs && now -. t0 >= seconds) || now > ctx.deadline
    then (List.rev setups, List.rev runs)
    else
      let s = setup () in
      let r = attempt ctx ~tag:"run" w.command ~trace in
      loop (s :: setups) (r :: runs) (k + 1)
  in
  let setups, runs = loop [] [] 0 in
  let more = max 0 (setup_runs - List.length setups) in
  let setups = setups @ List.init more (fun _ -> setup ()) in
  let check_setup = checker setup_cmd ~trace:one ~refs:1 in
  let check = checker w.command ~trace ~refs:w.refs in
  let setup_v = List.map check_setup setups in
  let warm_v = check warm in
  let run_v = List.map check runs in
  let passed attempts verdicts =
    List.concat
      (List.map2
         (fun a -> function Ok e -> [ (a, e) ] | Error _ -> [])
         attempts verdicts)
  in
  let ok_runs = passed runs run_v and ok_setups = passed setups setup_v in
  let attempted, failed, errors = tally ((warm_v :: setup_v) @ run_v) in
  let refs = float_of_int (Workloads.simulated_refs w) in
  let per_run f = List.map (fun (a, _) -> f a.res) ok_runs in
  let rates = per_run (fun r -> refs /. r.Proc.wall_s) in
  {
    metrics =
      [
        (* Interference from other tenants of the host only ever slows a
           run, and it drifts over minutes, so the fastest run repeats
           better across invocations than the median (README.md). *)
        {
          (summary "refs_per_s" "refs/s" rates) with
          value = List.fold_left Float.max neg_infinity rates;
        };
        summary "peak_rss_mb" "MB"
          (per_run (fun r -> float_of_int r.Proc.maxrss_kb /. 1024.));
        summary "setup_s" "s"
          (List.map (fun (a, _) -> a.res.Proc.wall_s) ok_setups);
        summary "rel_err" "ratio" (List.map snd ok_runs);
        single "fail_frac" "ratio"
          (float_of_int failed /. float_of_int attempted);
      ];
    attempted;
    failed;
    errors;
  }

(* --- the traced run: per-layer metrics ----------------------------- *)

let passes = 5

let time f =
  let t0 = Proc.now () in
  let r = f () in
  (Proc.now () -. t0, r)

let per_ref = "ns/ref"

(* One in-process pass of every layer measurement: (name, unit, value)
   samples, and the checks that the replays agree. *)
let layer_pass (w : Workloads.t) ~trace ~spans =
  let z = Workloads.z in
  let first = List.length (Spans.spans spans) in
  let on_s, layered = time (fun () -> Layered.replay ~spans z trace) in
  let off_s, layered_off = time (fun () -> Layered.replay z trace) in
  let sim, z_s = Layered.simulate z trace in
  let live, live_s =
    let reg = Atp_obs.Registry.create () in
    Layered.simulate ~obs:(Atp_obs.Scope.v ~prefix:"sim" reg) z trace
  in
  let load_s, _ =
    time (fun () ->
        Workload.generate (Trace.workload_of_file trace) w.refs)
  in
  let rows = machine_rows Workloads.sweep ~trace in
  let same name (r : Simulation.report) =
    if r = sim then Ok 0.
    else
      Error
        (Format.asprintf "%s differs from Simulation: %a" name
           Simulation.pp_report r)
  in
  let n = float_of_int w.refs in
  let ns s = s *. 1e9 /. n in
  let mine = List.filteri (fun i _ -> i >= first) (Spans.spans spans) in
  let self name = ns (Spans.self_total mine name) in
  let x = self "paging.x" and y = self "paging.y" in
  let d = self "core.decoupled" in
  let machine h =
    let _, _, s = List.find (fun (h', _, _) -> h' = h) rows in
    s *. 1e9 /. float_of_int (Workloads.sweep.warmup + Workloads.sweep.accesses)
  in
  let ratio a b = float_of_int a /. float_of_int b in
  ( [
      ("workloads.decode_ns_per_ref", per_ref, self "workloads.decode");
      ("workloads.load_ns_per_ref", per_ref, ns load_s);
      ("paging.x_ns_per_ref", per_ref, x);
      ("paging.y_ns_per_ref", per_ref, y);
      ("paging.x_hit_ratio", "ratio", ratio layered.x_hits w.refs);
      ("paging.y_hit_ratio", "ratio", ratio layered.y_hits w.refs);
      ("core.decoupled_ns_per_ref", per_ref, d);
      ("core.z_ns_per_ref", per_ref, ns z_s);
      ("core.residual_ns_per_ref", per_ref, ns z_s -. (x +. y +. d));
      ( "core.alloc_failures_per_io",
        "ratio",
        ratio sim.failures_total (max 1 sim.ios) );
      ("core.max_bucket_load", "count", float_of_int sim.max_bucket_load);
      ("obs.live_overhead_ns_per_ref", per_ref, ns (live_s -. z_s));
      ("memsim.machine_ns_per_ref.h1", per_ref, machine 1);
      ("memsim.machine_ns_per_ref.h64", per_ref, machine 64);
      ("memsim.machine_ns_per_ref.h1024", per_ref, machine 1024);
      ("bench.trace_overhead_frac", "ratio", (on_s -. off_s) /. off_s);
    ],
    [
      same "layered replay (spans on)" layered.report;
      same "layered replay (spans off)" layered_off.report;
      same "Simulation with a live registry" live;
    ] )

let traced ctx (w : Workloads.t) { trace; _ } =
  let spans = Spans.create ~enabled:true in
  let attempts =
    List.init passes (fun _ ->
        try Ok (layer_pass w ~trace ~spans)
        with e -> Error ("in-process replay: " ^ Printexc.to_string e))
  in
  let runs = List.filter_map Result.to_option attempts in
  let crashes =
    List.filter_map
      (function Error e -> Some (Error e) | Ok _ -> None)
      attempts
  in
  Spans.write_jsonl (Filename.concat ctx.dir "spans.jsonl") (Spans.spans spans);
  let layer_metrics =
    match runs with
    | [] -> []
    | (first, _) :: _ ->
      List.mapi
        (fun i (name, unit, _) ->
          summary name unit
            (List.map
               (fun (samples, _) ->
                 let _, _, v = List.nth samples i in
                 v)
               runs))
        first
  in
  (* One run of each atsim command shape, for what only the program can
     report.  The timed run holds the sharded replay to the engine's
     error bound; here it only has to be well-formed. *)
  let exact_cmd = Workloads.one_epoch w and engine_cmd = Workloads.engine w in
  let sweep_cmd = Workloads.Sweep Workloads.sweep in
  let exact_run = attempt ctx ~tag:"exact" exact_cmd ~trace in
  let engine_run = attempt ctx ~tag:"engine" engine_cmd ~trace in
  let sweep_run = attempt ctx ~tag:"sweep" sweep_cmd ~trace in
  let warmup_discarded =
    Output.engine_counter engine_run.json "engine.warmup_discarded"
    |> Result.value ~default:0
  in
  let task_walls =
    Output.sweep_rows sweep_run.json
    |> Result.map (List.map (fun (r : Output.row) -> r.wall_s))
    |> Result.value ~default:[]
  in
  let check cmd ?bound run = checker ?bound cmd ~trace ~refs:w.refs run in
  let attempted, failed, errors =
    tally
      (crashes
      @ List.concat_map snd runs
      @ [
          check exact_cmd exact_run;
          check engine_cmd ~bound:infinity engine_run;
          check sweep_cmd sweep_run;
        ])
  in
  let on_2_cores (a : attempt) x = x /. (a.res.Proc.wall_s *. 2.) in
  {
    metrics =
      layer_metrics
      @ [
          single "engine.useful_frac" "ratio"
            (float_of_int w.refs /. float_of_int (w.refs + warmup_discarded));
          single "engine.cpu_util" "ratio"
            (on_2_cores engine_run engine_run.res.Proc.cpu_s);
          single "exp.parallel_efficiency" "ratio"
            (on_2_cores sweep_run (List.fold_left ( +. ) 0. task_walls));
          single "exp.task_wall_s_max" "s"
            (List.fold_left Float.max 0. task_walls);
        ];
    attempted;
    failed;
    errors;
  }
