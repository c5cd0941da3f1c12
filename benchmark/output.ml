module Json = Atp_obs.Json
module Schema = Atp_exp.Schema

type totals = {
  epochs : int;
  accesses : int;
  ios : int;
  tlb_fills : int;
  decoding_misses : int;
  failures : int;
  max_bucket_load : int;
  warmup_replayed : int;
}

type decoupled = { totals : totals; cost : float; exact : bool }

let ( let* ) = Result.bind

let find_line prefix text =
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)
  with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "no %S line" prefix)

(* "k=v k=v …", counts printed with '_' separators. *)
let fields line =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
        let n = String.length tok in
        Some (String.sub tok 0 i, String.sub tok (i + 1) (n - i - 1))
      | None -> None)
    (String.split_on_char ' ' line)

let int_field kvs key =
  match List.assoc_opt key kvs with
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "bad %s=%s" key v))
  | None -> Error (Printf.sprintf "no %s field" key)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let decoupled text =
  let* line = find_line "epochs=" text in
  let kvs = fields line in
  let* epochs = int_field kvs "epochs" in
  let* accesses = int_field kvs "accesses" in
  let* ios = int_field kvs "ios" in
  let* tlb_fills = int_field kvs "tlb-fills" in
  let* decoding_misses = int_field kvs "decoding-misses" in
  let* failures = int_field kvs "failures" in
  let* max_bucket_load = int_field kvs "max-bucket-load" in
  let* warmup_replayed = int_field kvs "warmup-replayed" in
  let* cline = find_line "C(Z) = " text in
  let* cost =
    try Ok (Scanf.sscanf cline "C(Z) = %f" Fun.id)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> Error "bad C(Z) line"
  in
  let exact = contains cline ", exact: " in
  Ok
    {
      totals =
        {
          epochs;
          accesses;
          ios;
          tlb_fills;
          decoding_misses;
          failures;
          max_bucket_load;
          warmup_replayed;
        };
      cost;
      exact;
    }

type row = {
  h : int;
  ios : int;
  tlb_misses : int;
  cost : float;
  wall_s : float;
}

let field conv key j =
  match Option.bind (Json.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "row without %s" key)

let row_of_json j =
  match (Schema.status_of_row j, Schema.data_of_row j) with
  | Some "ok", Some data ->
    let* wall_s = field Json.as_float "wall_s" j in
    let* h = field Json.as_int "h" data in
    let* ios = field Json.as_int "ios" data in
    let* tlb_misses = field Json.as_int "tlb_misses" data in
    let* cost = field Json.as_float "cost" data in
    Ok { h; ios; tlb_misses; cost; wall_s }
  | status, _ ->
    Error
      (Printf.sprintf "row status %s" (Option.value ~default:"?" status))

let sweep_rows text =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  let* _ = Schema.validate_lines lines in
  List.fold_left
    (fun acc line ->
      let* rows = acc in
      let* j = Json.of_string line in
      if Schema.is_row j then
        let* r = row_of_json j in
        Ok (r :: rows)
      else Ok rows)
    (Ok []) lines
  |> Result.map List.rev

let engine_counter text name =
  let* j = Json.of_string (String.trim text) in
  match Option.bind (Json.member "counters" j) (Json.member name) with
  | Some (Json.Int n) -> Ok n
  | _ -> Error (Printf.sprintf "no counter %s" name)
