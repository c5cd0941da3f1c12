type sweep = { warmup : int; accesses : int }

type command =
  | Decoupled of { shards : int; epoch : int; shard_warmup : int }
  | Sweep of sweep

type t = { name : string; input : Gen.kind; refs : int; command : command }

let z =
  {
    Layered.p = 65536;
    w = 64;
    scheme = Atp_core.Params.Iceberg { d = 2 };
    tlb = 1536;
    x_policy = "lru";
    y_policy = "lru";
    seed = 42;
  }

let epsilon = 0.01

let sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

let checked_sizes = [ 1; 64; 1024 ]

let exact n = Decoupled { shards = 1; epoch = n; shard_warmup = n }

let sweep = { warmup = 1 lsl 17; accesses = 1 lsl 18 }

let zipf = Gen.Zipf { pages = 1 lsl 20 }

(* Sized so that one atsim run takes about a second on a 2-core host:
   a 20 s measurement then holds about twenty runs (README.md). *)
let all =
  [
    (* About 30% of refs are IOs, so Decoupled and Alloc dominate Z's time:
       a core change shows here. *)
    {
      name = "stream-zipf";
      input = zipf;
      refs = 1 lsl 20;
      command = exact (1 lsl 20);
    };
    (* Under 1% of refs are IOs: decode and the X/Y hit probes dominate
       and Alloc idles, so an Alloc change should not move it. *)
    {
      name = "stream-bimodal";
      input =
        Gen.Bimodal { pages = 1 lsl 20; hot = 1 lsl 14; hot_fraction = 0.9999 };
      refs = 1 lsl 22;
      command = exact (1 lsl 22);
    };
    (* The only 2-domain replay: each of 8 epochs re-replays one epoch of
       warm-up, so engine parallelism and warm-up waste show here only. *)
    {
      name = "shard2-zipf";
      input = zipf;
      refs = 1 lsl 20;
      command =
        Decoupled { shards = 2; epoch = 1 lsl 17; shard_warmup = 1 lsl 17 };
    };
    (* The paper's Figure 1 path: Machine on 11 huge-page sizes through
       Exp.Runner on 2 domains, bypassing Decoupled; the tasks are
       unequal, so tail effects show. *)
    {
      name = "sweep-walk";
      input = Gen.Walk { pages = 1 lsl 20; out_degree = 20; alpha = 0.01 };
      refs = 3 lsl 17;
      command = Sweep sweep;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let i = string_of_int

let args command ~trace ~json =
  match command with
  | Decoupled { shards; epoch; shard_warmup } ->
    [
      "decoupled"; "--trace-file"; trace; "--stream";
      "--shards"; i shards; "--epoch"; i epoch;
      "--shard-warmup"; i shard_warmup;
      "--ram"; i z.p; "-w"; i z.w; "--scheme"; "iceberg"; "--tlb"; i z.tlb;
      "--x-policy"; z.x_policy; "--y-policy"; z.y_policy;
      "--epsilon"; string_of_float epsilon; "--seed"; i z.seed;
      "--metrics"; json;
    ]
  | Sweep { warmup; accesses } ->
    [
      "sweep"; "--trace-file"; trace;
      "--ram"; i z.p; "--tlb"; i z.tlb; "--tcache-entries"; "0";
      "--epsilon"; string_of_float epsilon; "--seed"; i z.seed;
      "--warmup"; i warmup; "--accesses"; i accesses;
      "--json"; json;
    ]

let setup_command = function
  | Decoupled _ as c -> c
  | Sweep _ -> Sweep { warmup = 0; accesses = 1 }

let simulated_refs w =
  match w.command with
  | Decoupled _ -> w.refs
  | Sweep { warmup; accesses } -> List.length sizes * (warmup + accesses)

let one_epoch w = exact w.refs

let engine w =
  let epoch = w.refs / 8 in
  Decoupled { shards = 2; epoch; shard_warmup = epoch }
