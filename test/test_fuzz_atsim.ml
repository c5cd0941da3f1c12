(* A flag fuzzer for the atsim CLI: random flag combinations on the
   commands that build machines from their flags.  Every run must exit
   0, 2 (usage error) or 3 (malformed input), never 125 (an uncaught
   exception), and a run that exits 0 must print no "failed:" row.

   The binary's path is the first argument.  Runs are sequential; the
   measured and warm-up windows stay at 2000 references or fewer, and
   at 64 or fewer in engine mode, where every epoch builds a fresh
   simulator. *)

let atsim = Sys.argv.(1)

(* Flag values: [None] leaves the flag at its default. *)
let values = [ Some (-1); Some 0; Some 1; Some 2; Some 3; Some 7; Some 64; None ]

(* Half the flags keep their default, so that runs reach the machine
   constructors more often than a flag parser's refusal. *)
let gen_value =
  QCheck.Gen.(
    frequency
      (List.map
         (fun v -> ((if v = None then List.length values - 1 else 1), return v))
         values))

(* The defaults of --accesses and --warmup are a million references;
   stand in a small window for them. *)
let window ~cap =
  List.filter_map
    (function
      | Some n when n <= cap -> Some n
      | Some _ -> None
      | None -> Some cap)
    values

(* Each command with the size flags it takes and whether it takes
   --trace-file. *)
let commands =
  [
    ( "decoupled",
      [ "--ram"; "--tlb"; "-w"; "--vpages"; "--shards"; "--epoch";
        "--shard-warmup" ],
      true );
    ("policies", [ "--capacity"; "--vpages" ], true);
    ("thp", [ "--ram"; "--huge-size"; "--vpages" ], false);
    ("compare", [ "--ram"; "--tlb"; "--huge-size"; "--vpages" ], false);
    ("sweep", [ "--ram"; "--tlb"; "--vpages" ], true);
  ]

let gen_case =
  let open QCheck.Gen in
  let* cmd, flags, takes_trace = oneofl commands in
  let* sized =
    flatten_l
      (List.map
         (fun flag -> map (Option.map (fun v -> (flag, v))) gen_value)
         flags)
  in
  let sized = List.filter_map Fun.id sized in
  let* stream = if cmd = "decoupled" then bool else return false in
  let engine =
    stream
    || List.exists (fun (f, v) -> String.equal f "--shards" && v > 1) sized
  in
  let cap = if engine then 64 else 2000 in
  let* accesses = oneofl (window ~cap) in
  let* warmup = oneofl (window ~cap) in
  let* missing =
    if takes_trace then frequency [ (1, return true); (5, return false) ]
    else return false
  in
  let args =
    List.map
      (fun (f, v) ->
        (* cmdliner glues a short option's value: -w-1, -w64. *)
        if String.length f = 2 then Printf.sprintf "%s%d" f v
        else Printf.sprintf "%s=%d" f v)
      (sized @ [ ("--accesses", accesses); ("--warmup", warmup) ])
    @ (if stream then [ "--stream" ] else [])
    @ if missing then [ "--trace-file=missing.atps" ] else []
  in
  return (cmd :: args)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let run_case args =
  let out = Filename.temp_file "atsim_fuzz" ".out" in
  let err = Filename.temp_file "atsim_fuzz" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove err)
    (fun () ->
      let code =
        Sys.command (Filename.quote_command atsim args ~stdout:out ~stderr:err)
      in
      match code with
      | 2 | 3 -> true
      | 0 ->
        let printed = read_file out in
        (not (contains ~sub:"failed:" printed))
        || QCheck.Test.fail_reportf "exit 0 with a failed row:@.%s" printed
      | code ->
        QCheck.Test.fail_reportf "exit %d:@.%s" code (read_file err))

let fuzz =
  QCheck.Test.make ~count:150 ~name:"flags exit 0, 2 or 3"
    (QCheck.make gen_case ~print:(String.concat " "))
    run_case

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "atp.fuzz"
    [
      ( "atsim",
        [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |]) fuzz ] );
    ]
