module Json = Atp_obs.Json

type column = { header : string; width : int; render : Json.t -> string }

let cell_of ~render ~none json field =
  match Json.member field json with
  | Some v -> ( match render v with Some s -> s | None -> none)
  | None -> none

let col_int ?(width = 14) ?field header =
  let field = Option.value field ~default:header in
  {
    header;
    width;
    render =
      (fun data ->
        cell_of data field ~none:"-"
          ~render:(fun v -> Option.map string_of_int (Json.as_int v)));
  }

let col_float ?(width = 14) ?(decimals = 1) ?field header =
  let field = Option.value field ~default:header in
  {
    header;
    width;
    render =
      (fun data ->
        cell_of data field ~none:"-"
          ~render:(fun v ->
            Option.map
              (fun f -> Printf.sprintf "%.*f" decimals f)
              (Json.as_float v)));
  }

let print_table ?(out = stdout) ~columns outcomes =
  let key_header = "task" in
  let key_width =
    List.fold_left
      (fun acc (o : Outcome.t) -> max acc (String.length o.Outcome.key))
      (String.length key_header)
      outcomes
  in
  Printf.fprintf out "%-*s" key_width key_header;
  List.iter (fun c -> Printf.fprintf out " %*s" c.width c.header) columns;
  output_char out '\n';
  List.iter
    (fun (o : Outcome.t) ->
      match Outcome.data o with
      | Some data ->
        Printf.fprintf out "%-*s" key_width o.Outcome.key;
        List.iter
          (fun c -> Printf.fprintf out " %*s" c.width (c.render data))
          columns;
        output_char out '\n'
      | None ->
        let exn_text =
          match Outcome.error o with
          | Some (e, _) -> e
          | None -> "unknown failure"
        in
        Printf.fprintf out "%-*s FAILED after %d attempt%s: %s\n" key_width
          o.Outcome.key (Outcome.attempts o)
          (if Outcome.attempts o = 1 then "" else "s")
          exn_text)
    outcomes;
  let failed = List.filter (fun o -> not (Outcome.ok o)) outcomes in
  if failed <> [] then
    Printf.fprintf out "(%d/%d tasks failed: %s)\n" (List.length failed)
      (List.length outcomes)
      (String.concat ", " (List.map (fun o -> o.Outcome.key) failed));
  flush out

let ratio num den = float_of_int num /. float_of_int (max 1 den)

let shape_line rows =
  match rows with
  | [] -> "shape: no rows (every huge-page size was filtered out)"
  | [ (key, ios, tlb) ] ->
    (* A singleton sweep has no first-to-last trend to report. *)
    Printf.sprintf "shape: single row %s: IOs %d, TLB misses %d, TLB/IO = %.1f"
      key ios tlb (ratio tlb ios)
  | (first_key, first_ios, first_tlb) :: _ ->
    let last_key, last_ios, last_tlb =
      List.fold_left (fun _ row -> row) (List.hd rows) (List.tl rows)
    in
    Printf.sprintf
      "shape: IOs x%.0f from %s to %s; TLB misses x%.4f; at %s TLB/IO = %.1f"
      (ratio last_ios first_ios) first_key last_key
      (ratio last_tlb first_tlb) first_key (ratio first_tlb first_ios)
