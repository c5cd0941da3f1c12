open Atp_core
open Atp_workloads
open Atp_util
module Obs = Atp_obs

type config = {
  shards : int;
  epoch_len : int;
  warmup : int;
}

let validate_config c =
  if c.shards < 1 then invalid_arg "Engine: shards must be positive";
  if c.epoch_len < 1 then invalid_arg "Engine: epoch_len must be positive";
  if c.warmup < 0 then invalid_arg "Engine: warmup must be non-negative"

(* Measured, not derived: see the "engine" bench experiment and the
   EXPERIMENTS.md error-model section; test/test_engine.ml asserts it. *)
let documented_error_bound = 0.10

type totals = {
  accesses : int;
  ios : int;
  tlb_fills : int;
  decoding_misses : int;
  failures : int;
  max_bucket_load : int;
  epochs : int;
  warmup_replayed : int;
}

let empty_totals =
  {
    accesses = 0;
    ios = 0;
    tlb_fills = 0;
    decoding_misses = 0;
    failures = 0;
    max_bucket_load = 0;
    epochs = 0;
    warmup_replayed = 0;
  }

let ledger t =
  { Obs.Cost.zero with
    ios = t.ios; tlb = t.tlb_fills; decode = t.decoding_misses }

let add_report t (r : Simulation.report) ~warmup_len =
  {
    accesses = t.accesses + r.Simulation.accesses;
    ios = t.ios + r.Simulation.ios;
    tlb_fills = t.tlb_fills + r.Simulation.tlb_fills;
    decoding_misses = t.decoding_misses + r.Simulation.decoding_misses;
    failures = t.failures + r.Simulation.failures_total;
    max_bucket_load = max t.max_bucket_load r.Simulation.max_bucket_load;
    epochs = t.epochs + 1;
    warmup_replayed = t.warmup_replayed + warmup_len;
  }

let pp_totals ppf t =
  Format.fprintf ppf
    "epochs=%d accesses=%a ios=%a tlb-fills=%a decoding-misses=%a \
     failures=%a max-bucket-load=%d warmup-replayed=%a"
    t.epochs Stats.pp_count t.accesses Stats.pp_count t.ios Stats.pp_count
    t.tlb_fills Stats.pp_count t.decoding_misses Stats.pp_count t.failures
    t.max_bucket_load Stats.pp_count t.warmup_replayed

(* Block sources: the engine pulls whole blocks into a caller buffer,
   never one option per ref. *)
type source = int array -> int -> int -> int

let check_block name dst pos len =
  if pos < 0 || len < 0 || pos + len > Array.length dst then invalid_arg name

let source_of_array trace : source =
  let consumed = ref 0 in
  fun dst pos len ->
    check_block "Engine.source_of_array" dst pos len;
    let k = min len (Array.length trace - !consumed) in
    Array.blit trace !consumed dst pos k;
    consumed := !consumed + k;
    k

let source_of_workload w ~n : source =
  if n < 0 then invalid_arg "Engine.source_of_workload: negative n";
  let left = ref n in
  fun dst pos len ->
    check_block "Engine.source_of_workload" dst pos len;
    let k = min len !left in
    for i = pos to pos + k - 1 do
      Array.unsafe_set dst i (w.Workload.next ())
    done;
    left := !left - k;
    k

let source_of_stream path : source =
  let r = Trace.Stream.open_reader path in
  fun dst pos len ->
    let k = Trace.Stream.read_into r dst pos len in
    if k < len then Trace.Stream.close_reader r;
    k

(* The rolling warm-up history: the last [warmup] references consumed
   from the source, in order, so each epoch can be prefixed with the
   window that precedes it in the stream. *)
module History = struct
  type t = { ring : int array; mutable seen : int }

  let create warmup = { ring = Array.make (max 1 warmup) 0; seen = 0 }

  let push t page =
    let cap = Array.length t.ring in
    t.ring.(t.seen mod cap) <- page;
    t.seen <- t.seen + 1

  (* The last [min warmup seen] references, oldest first. *)
  let window t ~warmup =
    if warmup = 0 then [||]
    else begin
      let avail = min warmup t.seen in
      let start = t.seen - avail in
      let cap = Array.length t.ring in
      Array.init avail (fun i -> t.ring.((start + i) mod cap))
    end
end

type epoch = { pre : int array; refs : int array }

let pull_epoch ~config ~history (source : source) =
  let pre = History.window history ~warmup:config.warmup in
  let buf = Array.make config.epoch_len 0 in
  let n = source buf 0 config.epoch_len in
  if n = 0 then None
  else begin
    for i = 0 to n - 1 do
      History.push history (Array.unsafe_get buf i)
    done;
    Some { pre; refs = (if n = config.epoch_len then buf else Array.sub buf 0 n) }
  end

let rec pull_batch ~config ~history source k acc =
  if k = 0 then List.rev acc
  else
    match pull_epoch ~config ~history source with
    | None -> List.rev acc
    | Some e -> pull_batch ~config ~history source (k - 1) (e :: acc)

let replay ?obs ~config ~make_sim source =
  validate_config config;
  let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
  let c_epochs = Obs.Scope.counter obs "epochs"
  and c_warmup = Obs.Scope.counter obs "warmup_discarded" in
  let history = History.create config.warmup in
  let totals = ref empty_totals in
  let finished = ref false in
  while not !finished do
    match pull_batch ~config ~history source config.shards [] with
    | [] -> finished := true
    | batch ->
      (* One fresh simulator per epoch, replayed on up to [shards]
         domains; the per-epoch reports merge in stream order, so the
         aggregate is independent of scheduling. *)
      let reports =
        Parallel.map
          (fun e ->
            let sim = make_sim () in
            (Simulation.run ~warmup:e.pre sim e.refs, Array.length e.pre))
          batch
      in
      List.iter
        (fun (r, warmup_len) ->
          totals := add_report !totals r ~warmup_len;
          Obs.Counter.incr c_epochs;
          Obs.Counter.add c_warmup warmup_len)
        reports
  done;
  !totals
