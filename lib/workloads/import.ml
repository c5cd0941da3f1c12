(* Streaming importers: external address traces -> VPN sink.

   Parsers are hand-rolled rather than Scanf/regex-based so every
   failure mode is a typed Trace.Parse_error with a line number, and
   so the per-line cost is a few comparisons — imports are expected
   to chew through multi-gigabyte captures. *)

type format = Hex | Lackey | Csv

let pp_format ppf f =
  Format.pp_print_string ppf
    (match f with Hex -> "hex" | Lackey -> "lackey" | Csv -> "csv")

type radix = Decimal | Hexadecimal

type csv = { column : int; radix : radix; skip_header : bool }

let default_csv = { column = 1; radix = Hexadecimal; skip_header = false }

type config = {
  page_bits : int;
  limit : int option;
  dedup_consecutive : bool;
  drop_instr : bool;
  csv : csv;
}

let default =
  {
    page_bits = 12;
    limit = None;
    dedup_consecutive = false;
    drop_instr = false;
    csv = default_csv;
  }

type stats = { lines : int; parsed : int; emitted : int }

let pp_stats ppf s =
  Format.fprintf ppf "lines=%d parsed=%d emitted=%d" s.lines s.parsed s.emitted

let max_line_bytes = 1 lsl 16

(* Addresses must survive the ATPS zigzag encoding: 62 signed bits. *)
let max_addr = (1 lsl 62) - 1

let fail path ~line fmt =
  Printf.ksprintf
    (fun what ->
      raise
        (Trace.Parse_error { path; what = Printf.sprintf "line %d: %s" line what }))
    fmt

(* Quote at most the head of an offending token: corrupt captures can
   hold arbitrarily long garbage and the diagnostic must stay short. *)
let clip s = if String.length s <= 32 then s else String.sub s 0 32 ^ "..."

let dec_digit c =
  match c with '0' .. '9' -> Char.code c - Char.code '0' | _ -> -1

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* [parse_int] decodes a whole token as an unsigned integer of the
   radix, rejecting empty tokens, stray characters, and values that
   would not fit 62 bits.  Hexadecimal tokens may carry an 0x/0X
   prefix (lackey never prints one; hand-written CSVs often do). *)
let parse_int path ~line ~what radix s =
  let base, digit =
    match radix with
    | Decimal -> (10, dec_digit)
    | Hexadecimal -> (16, hex_digit)
  in
  let start =
    match radix with
    | Hexadecimal
      when String.length s >= 2
           && s.[0] = '0'
           && (s.[1] = 'x' || s.[1] = 'X') ->
      2
    | Hexadecimal | Decimal -> 0
  in
  let len = String.length s in
  if len = start then fail path ~line "empty %s %S" what (clip s);
  let v = ref 0 in
  for i = start to len - 1 do
    let d = digit s.[i] in
    if d < 0 then fail path ~line "bad %s %S" what (clip s);
    if !v > (max_addr - d) / base then
      fail path ~line "%s %S overflows 62 bits" what (clip s);
    v := (!v * base) + d
  done;
  !v

let is_space c = c = ' ' || c = '\t'

(* First whitespace-separated token of a trimmed, nonempty line. *)
let first_token s =
  let len = String.length s in
  let stop = ref 0 in
  while !stop < len && not (is_space s.[!stop]) do
    incr stop
  done;
  String.sub s 0 !stop

(* --- hex: one address per line, extra columns ignored -------------- *)

let hex_line path ~line s =
  (* Anything after the address — an R/W marker, a size, a comment the
     capturing tool appended — is tolerated and skipped; only the
     leading token must be a hex address. *)
  Some (parse_int path ~line ~what:"hex address" Hexadecimal (first_token s))

(* --- lackey: "I/L/S/M addr,size" records --------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let lackey_line path ~line ~drop_instr s =
  if starts_with ~prefix:"==" s || starts_with ~prefix:"--" s then
    (* valgrind banners and option echoes wrap the record stream *)
    None
  else
    let kind = s.[0] in
    match kind with
    | ('I' | 'L' | 'S' | 'M') when String.length s >= 2 && is_space s.[1] ->
      let rest = String.trim (String.sub s 2 (String.length s - 2)) in
      let addr_str, size_str =
        match String.index_opt rest ',' with
        | Some i ->
          ( String.sub rest 0 i,
            Some (String.sub rest (i + 1) (String.length rest - i - 1)) )
        | None -> (rest, None)
      in
      let addr =
        parse_int path ~line ~what:"lackey address" Hexadecimal
          (String.trim addr_str)
      in
      (* The size column is validated (a malformed record should not
         import silently) but its value is irrelevant to paging. *)
      Option.iter
        (fun sz ->
          ignore
            (parse_int path ~line ~what:"lackey size" Decimal
               (first_token (String.trim sz))))
        size_str;
      if kind = 'I' && drop_instr then None else Some addr
    | _ -> fail path ~line "unrecognized lackey record %S" (clip s)

(* --- csv: address in a fixed column -------------------------------- *)

let csv_line path ~line ~csv s =
  let fields = String.split_on_char ',' s in
  match List.nth_opt fields (csv.column - 1) with
  | None ->
    fail path ~line "row has %d columns, address expected in column %d"
      (List.length fields) csv.column
  | Some f ->
    Some (parse_int path ~line ~what:"csv address" csv.radix (String.trim f))

(* --- the streaming driver ------------------------------------------ *)

let validate config =
  if config.page_bits < 0 || config.page_bits > 62 then
    invalid_arg "Import: page_bits must be in [0, 62]";
  (match config.limit with
  | Some l when l < 0 -> invalid_arg "Import: limit must be non-negative"
  | Some _ | None -> ());
  if config.csv.column < 1 then invalid_arg "Import: csv column is 1-based"

(* Bounded line reader: one line into the reused buffer, never more
   than [max_line_bytes] of it resident.  `Overlong is reported by the
   caller as a parse error at the offending line. *)
let read_line ic buf =
  Buffer.clear buf;
  let rec go () =
    match input_char ic with
    | exception End_of_file -> if Buffer.length buf = 0 then `Eof else `Line
    | '\n' -> `Line
    | c ->
      if Buffer.length buf >= max_line_bytes then `Overlong
      else begin
        Buffer.add_char buf c;
        go ()
      end
  in
  go ()

let bom = "\xef\xbb\xbf"

let strip_bom s = if starts_with ~prefix:bom s then String.sub s 3 (String.length s - 3) else s

let import ?(config = default) ~format path sink =
  validate config;
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 256 in
      let lines = ref 0 and parsed = ref 0 and emitted = ref 0 in
      let last = ref min_int in
      let stop = ref false in
      while not !stop do
        match read_line ic buf with
        | `Eof -> stop := true
        | `Overlong ->
          fail path ~line:(!lines + 1) "line exceeds %d bytes" max_line_bytes
        | `Line ->
          incr lines;
          let line = !lines in
          let raw = Buffer.contents buf in
          let raw = if line = 1 then strip_bom raw else raw in
          let s = String.trim raw in
          let addr =
            if String.equal s "" || s.[0] = '#' then None
            else
              match format with
              | Hex -> hex_line path ~line s
              | Lackey ->
                lackey_line path ~line ~drop_instr:config.drop_instr s
              | Csv ->
                if line = 1 && config.csv.skip_header then None
                else csv_line path ~line ~csv:config.csv s
          in
          (match addr with
          | None -> ()
          | Some addr ->
            incr parsed;
            let vpn = addr lsr config.page_bits in
            if not (config.dedup_consecutive && !last = vpn) then begin
              sink vpn;
              last := vpn;
              incr emitted;
              match config.limit with
              | Some l when !emitted >= l -> stop := true
              | Some _ | None -> ()
            end)
      done;
      { lines = !lines; parsed = !parsed; emitted = !emitted })

(* --- sniffing ------------------------------------------------------ *)

(* Probe classification of one trimmed content line.  `Dec lines are
   native text traces (decimal page per line); anything shaped like an
   address record votes for an import format; junk stops the scan so
   Trace.load's own bad-line diagnostic fires. *)
let classify_line s =
  if starts_with ~prefix:"==" s || starts_with ~prefix:"--" s then `Skip
  else
    let tok = first_token s in
    let is_all dig t =
      String.length t > 0
      &&
      let ok = ref true in
      String.iter (fun c -> if dig c < 0 then ok := false) t;
      !ok
    in
    match s.[0] with
    | ('I' | 'L' | 'S' | 'M') when String.length s >= 2 && is_space s.[1] ->
      `Import Lackey
    | _ ->
      if String.contains s ',' then `Import Csv
      else if is_all dec_digit tok && String.equal tok s then `Dec
      else if
        is_all hex_digit tok
        || (String.length tok > 2
           && tok.[0] = '0'
           && (tok.[1] = 'x' || tok.[1] = 'X')
           && is_all hex_digit (String.sub tok 2 (String.length tok - 2)))
      then `Import Hex
      else `Junk

let probe_bytes = 4096

let sniff path =
  match Trace.format_of_file path with
  | (Trace.Binary | Trace.Streamed) as f -> `Native f
  | Trace.Text | Trace.Hex ->
    let ic = open_in_bin path in
    let probe =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let want = min probe_bytes (in_channel_length ic) in
          really_input_string ic want)
    in
    let lines = String.split_on_char '\n' probe in
    (* Drop the final fragment when the probe was cut mid-line. *)
    let lines =
      if String.length probe = probe_bytes then
        match List.rev lines with _ :: tl -> List.rev tl | [] -> []
      else lines
    in
    let verdict = ref None in
    let inspected = ref 0 in
    List.iter
      (fun l ->
        let s = String.trim (strip_bom l) in
        if
          Option.is_none !verdict
          && !inspected < 16
          && not (String.equal s "" || s.[0] = '#')
        then begin
          match classify_line s with
          | `Skip -> ()
          | `Dec -> incr inspected
          | `Junk -> verdict := Some (`Native Trace.Text)
          | `Import f -> verdict := Some (`Import f)
        end)
      lines;
    Option.value !verdict ~default:(`Native Trace.Text)

let import_file ?chunk_size ?config ?format ~src ~dst () =
  let format =
    match format with
    | Some f -> f
    | None -> (
      match sniff src with
      | `Import f -> f
      | `Native f ->
        raise
          (Trace.Parse_error
             {
               path = src;
               what =
                 Format.asprintf
                   "already a native %a trace; convert it with `atsim trace \
                    pack` instead of import"
                   Trace.pp_format f;
             }))
  in
  match
    Trace.Stream.with_writer ?chunk_size dst (fun w ->
        import ?config ~format src (Trace.Stream.push w))
  with
  | stats -> stats
  | exception e ->
    (try Sys.remove dst with Sys_error _ -> ());
    raise e
