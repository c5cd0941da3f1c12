open Atp_util

type summary = {
  length : int;
  footprint : int;
  min_page : int;
  max_page : int;
}

let summarize trace =
  if Array.length trace = 0 then
    { length = 0; footprint = 0; min_page = 0; max_page = 0 }
  else begin
    let seen = Int_table.create () in
    let min_page = ref max_int and max_page = ref min_int in
    Array.iter
      (fun page ->
        ignore (Int_table.add_if_absent seen page 1);
        if page < !min_page then min_page := page;
        if page > !max_page then max_page := page)
      trace;
    {
      length = Array.length trace;
      footprint = Int_table.length seen;
      min_page = !min_page;
      max_page = !max_page;
    }
  end

exception Parse_error of { path : string; what : string }

let () =
  Printexc.register_printer (function
    | Parse_error { path; what } ->
      Some (Printf.sprintf "Trace.Parse_error(%s: %s)" path what)
    | _ -> None)

let parse_error path fmt =
  Printf.ksprintf (fun what -> raise (Parse_error { path; what })) fmt

let with_out path f =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let with_in path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let save_text path trace =
  with_out path (fun oc ->
      Array.iter (fun page -> Printf.fprintf oc "%d\n" page) trace)

(* A growable flat int buffer: parsing must not build a boxed
   intermediate list (it used to cost ~4x the trace in peak memory). *)
module Growbuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let contents t = Array.sub t.data 0 t.len
end

let load_text_ic path ic =
  let buf = Growbuf.create () in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then begin
         match int_of_string_opt line with
         | Some page -> Growbuf.push buf page
         | None -> parse_error path "bad line %S" line
       end
     done
   with End_of_file -> ());
  Growbuf.contents buf

let magic = "ATPT"

let write_u64 oc v =
  for shift = 0 to 7 do
    output_byte oc ((v lsr (8 * shift)) land 0xFF)
  done

let read_u64 ic =
  let v = ref 0 in
  for shift = 0 to 7 do
    let byte = input_byte ic in
    v := !v lor (byte lsl (8 * shift))
  done;
  !v

let save_binary path trace =
  with_out path (fun oc ->
      output_string oc magic;
      write_u64 oc (Array.length trace);
      Array.iter (fun page -> write_u64 oc page) trace)

(* Body of an ATPT file, the magic already consumed.  The declared
   count is validated against the file size before the array is
   sized: a corrupt count must fail as a parse error, not as a
   multi-gigabyte allocation. *)
let load_binary_body path ic =
  match read_u64 ic with
  | exception End_of_file -> parse_error path "truncated header"
  | n ->
    if n < 0 || n > in_channel_length ic / 8 then
      parse_error path "declared count %d exceeds file size" n;
    (try Array.init n (fun _ -> read_u64 ic)
     with End_of_file -> parse_error path "truncated body")

(* ------------------------------------------------------------------ *)
(* The streamed chunked format (ATPS)                                  *)
(* ------------------------------------------------------------------ *)

module Stream = struct
  let magic = "ATPS"

  let version = 1

  let default_chunk_size = 1 lsl 16

  (* Worst case for one zigzag varint of a 63-bit int. *)
  let max_varint_bytes = 10

  let length_offset = 4 + (2 * 8)

  type header = { version : int; chunk_size : int; length : int }

  type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let zigzag n = (n lsl 1) lxor (n asr 62)

  let unzigzag u = (u lsr 1) lxor (- (u land 1))

  let put_varint buf pos v =
    let v = ref v and pos = ref pos in
    while !v lsr 7 <> 0 do
      Bytes.unsafe_set buf !pos (Char.unsafe_chr (0x80 lor (!v land 0x7F)));
      incr pos;
      v := !v lsr 7
    done;
    Bytes.unsafe_set buf !pos (Char.unsafe_chr !v);
    !pos + 1

  let get_varint path buf pos limit =
    let v = ref 0 and shift = ref 0 and pos = ref pos and more = ref true in
    while !more do
      if !pos >= limit then parse_error path "truncated varint";
      let b = Char.code (Bytes.unsafe_get buf !pos) in
      incr pos;
      v := !v lor ((b land 0x7F) lsl !shift);
      shift := !shift + 7;
      more := b land 0x80 <> 0;
      if !more && !shift >= 63 then parse_error path "varint overflow"
    done;
    (!v, !pos)

  (* --- writer ----------------------------------------------------- *)

  type writer = {
    w_oc : out_channel;
    w_chunk_size : int;
    w_pending : chunk;
    w_enc : Bytes.t;
    mutable w_fill : int;
    mutable w_written : int;
    mutable w_closed : bool;
  }

  let open_writer ?(chunk_size = default_chunk_size) path =
    if chunk_size < 1 then
      invalid_arg "Trace.Stream.open_writer: chunk_size must be positive";
    let oc = open_out_bin path in
    output_string oc magic;
    write_u64 oc version;
    write_u64 oc chunk_size;
    write_u64 oc 0;
    {
      w_oc = oc;
      w_chunk_size = chunk_size;
      w_pending = Bigarray.Array1.create Bigarray.int Bigarray.c_layout chunk_size;
      w_enc = Bytes.create (chunk_size * max_varint_bytes);
      w_fill = 0;
      w_written = 0;
      w_closed = false;
    }

  let flush_chunk w =
    if w.w_fill > 0 then begin
      let pos = ref 0 and prev = ref 0 in
      for i = 0 to w.w_fill - 1 do
        let page = Bigarray.Array1.unsafe_get w.w_pending i in
        (* First reference absolute, the rest deltas: chunks decode
           standalone, so a reader can skip or parallelize over them. *)
        let v = if i = 0 then page else page - !prev in
        pos := put_varint w.w_enc !pos (zigzag v);
        prev := page
      done;
      write_u64 w.w_oc w.w_fill;
      write_u64 w.w_oc !pos;
      output w.w_oc w.w_enc 0 !pos;
      w.w_written <- w.w_written + w.w_fill;
      w.w_fill <- 0
    end

  let push w page =
    if w.w_closed then invalid_arg "Trace.Stream.push: writer is closed";
    Bigarray.Array1.unsafe_set w.w_pending w.w_fill page;
    w.w_fill <- w.w_fill + 1;
    if w.w_fill = w.w_chunk_size then flush_chunk w

  let close_writer w =
    if not w.w_closed then begin
      w.w_closed <- true;
      flush_chunk w;
      seek_out w.w_oc length_offset;
      write_u64 w.w_oc w.w_written;
      close_out w.w_oc
    end

  let with_writer ?chunk_size path f =
    let w = open_writer ?chunk_size path in
    Fun.protect ~finally:(fun () -> close_writer w) (fun () -> f w)

  (* --- reader ----------------------------------------------------- *)

  type reader = {
    r_ic : in_channel;
    r_path : string;
    r_header : header;
    r_buf : chunk;
    r_raw : Bytes.t;
    mutable r_consumed : int;
    mutable r_len : int;  (* refs decoded into [r_buf] by the last fill *)
    mutable r_pos : int;  (* of which, how many [read_into] consumed *)
    mutable r_closed : bool;
  }

  let read_u64_or path what ic =
    try read_u64 ic with End_of_file -> parse_error path "truncated %s" what

  (* The magic already consumed; parse the rest of the header and hand
     back a reader owning [ic]. *)
  let reader_of_channel path ic =
    let v = read_u64_or path "header" ic in
    if v <> version then parse_error path "unsupported version %d" v;
    let chunk_size = read_u64_or path "header" ic in
    if chunk_size < 1 then parse_error path "bad chunk_size %d" chunk_size;
    if chunk_size > 1 lsl 28 then
      parse_error path "unreasonable chunk_size %d" chunk_size;
    let length = read_u64_or path "header" ic in
    if length < 0 then parse_error path "bad length %d" length;
    (* Every reference occupies at least one payload byte, so a sane
       declared length never exceeds the file size; checking it (and
       sizing the chunk buffers by [min chunk_size length]) keeps a
       corrupt header from provoking an allocation far larger than
       the file itself. *)
    if length > in_channel_length ic then
      parse_error path "declared length %d exceeds file size" length;
    let dim = max 1 (min chunk_size length) in
    {
      r_ic = ic;
      r_path = path;
      r_header = { version = v; chunk_size; length };
      r_buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout dim;
      r_raw = Bytes.create (dim * max_varint_bytes);
      r_consumed = 0;
      r_len = 0;
      r_pos = 0;
      r_closed = false;
    }

  let open_reader path =
    let ic = open_in_bin path in
    match
      let m =
        try really_input_string ic 4
        with End_of_file -> parse_error path "truncated magic"
      in
      if not (String.equal m magic) then parse_error path "bad magic %S" m;
      reader_of_channel path ic
    with
    | r -> r
    | exception e ->
      close_in_noerr ic;
      raise e

  let header r = r.r_header

  let close_reader r =
    if not r.r_closed then begin
      r.r_closed <- true;
      close_in r.r_ic
    end

  (* Decode the next chunk into the reused [r_buf]; returns the number
     of refs decoded, 0 at end of stream.  Allocation-free: the refs
     are valid only until the next fill. *)
  let fill_chunk r =
    if r.r_closed || r.r_consumed >= r.r_header.length then begin
      r.r_len <- 0;
      r.r_pos <- 0;
      0
    end
    else begin
      let path = r.r_path in
      let n = read_u64_or path "chunk header" r.r_ic in
      let nbytes = read_u64_or path "chunk header" r.r_ic in
      if n < 1 || n > r.r_header.chunk_size then
        parse_error path "bad chunk count %d" n;
      if r.r_consumed + n > r.r_header.length then
        parse_error path "chunk overruns declared length";
      if nbytes < n || nbytes > n * max_varint_bytes then
        parse_error path "bad chunk payload size %d" nbytes;
      (try really_input r.r_ic r.r_raw 0 nbytes
       with End_of_file -> parse_error path "truncated chunk payload");
      let pos = ref 0 and prev = ref 0 in
      for i = 0 to n - 1 do
        let v, p = get_varint path r.r_raw !pos nbytes in
        pos := p;
        let d = unzigzag v in
        let page = if i = 0 then d else !prev + d in
        Bigarray.Array1.unsafe_set r.r_buf i page;
        prev := page
      done;
      if !pos <> nbytes then parse_error path "chunk payload size mismatch";
      r.r_consumed <- r.r_consumed + n;
      r.r_len <- n;
      r.r_pos <- 0;
      n
    end

  let next_chunk r =
    let n = fill_chunk r in
    r.r_pos <- r.r_len;
    if n = 0 then None else Some (Bigarray.Array1.sub r.r_buf 0 n)

  let fold_chunks f acc r =
    let rec go acc =
      let n = fill_chunk r in
      if n = 0 then acc
      else begin
        r.r_pos <- r.r_len;
        go (f acc r.r_buf n)
      end
    in
    go acc

  let read_into r dst pos len =
    if pos < 0 || len < 0 || pos + len > Array.length dst then
      invalid_arg "Trace.Stream.read_into";
    let filled = ref 0 in
    let eof = ref false in
    while !filled < len && not !eof do
      if r.r_pos >= r.r_len then begin
        if fill_chunk r = 0 then eof := true
      end
      else begin
        let k = min (len - !filled) (r.r_len - r.r_pos) in
        let base = pos + !filled and off = r.r_pos in
        for i = 0 to k - 1 do
          Array.unsafe_set dst (base + i)
            (Bigarray.Array1.unsafe_get r.r_buf (off + i))
        done;
        r.r_pos <- off + k;
        filled := !filled + k
      end
    done;
    !filled

  let with_reader path f =
    let r = open_reader path in
    Fun.protect ~finally:(fun () -> close_reader r) (fun () -> f r)

  let iter f path =
    with_reader path (fun r ->
        let rec go () =
          match next_chunk r with
          | None -> ()
          | Some c ->
            for i = 0 to Bigarray.Array1.dim c - 1 do
              f (Bigarray.Array1.unsafe_get c i)
            done;
            go ()
        in
        go ())

  let to_array_of_reader r =
    let buf = Growbuf.create () in
    let rec go () =
      match next_chunk r with
      | None -> ()
      | Some c ->
        for i = 0 to Bigarray.Array1.dim c - 1 do
          Growbuf.push buf (Bigarray.Array1.unsafe_get c i)
        done;
        go ()
    in
    go ();
    let arr = Growbuf.contents buf in
    if Array.length arr <> r.r_header.length then
      parse_error r.r_path "file holds %d refs, header declares %d"
        (Array.length arr) r.r_header.length;
    arr

  let to_array path = with_reader path to_array_of_reader

  let pack_array ?chunk_size path trace =
    with_writer ?chunk_size path (fun w -> Array.iter (push w) trace)
end

(* ------------------------------------------------------------------ *)
(* Format dispatch                                                     *)
(* ------------------------------------------------------------------ *)

type format = Text | Binary | Streamed | Hex

let pp_format ppf f =
  Format.pp_print_string ppf
    (match f with
    | Text -> "text"
    | Binary -> "binary"
    | Streamed -> "streamed"
    | Hex -> "hex")

(* External hex address traces (the classic one-address-per-line
   `trace.tr`, lackey logs, CSVs) used to sniff as the decimal text
   format: an all-digit hex address like "12345678" then parsed
   {e silently} as decimal, and "0041f7a0" died with a confusing "bad
   line".  The sniffer now also inspects the first content lines of a
   non-magic file; address-shaped lines (hex letters, an 0x prefix,
   extra columns, commas, lackey records) classify it as [Hex], which
   {!load} refuses with a pointer at `atsim trace import`.  A file of
   bare digit-only single-column lines is genuinely ambiguous and
   stays [Text]. *)

let probe_bytes = 4096

let is_dec_token s =
  let len = String.length s in
  let start = if len > 0 && s.[0] = '-' then 1 else 0 in
  len > start
  &&
  let ok = ref true in
  for i = start to len - 1 do
    match s.[i] with '0' .. '9' -> () | _ -> ok := false
  done;
  !ok

let is_hex_token s =
  let start =
    if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then 2
    else 0
  in
  String.length s > start
  &&
  let ok = ref true in
  for i = start to String.length s - 1 do
    match s.[i] with '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> () | _ -> ok := false
  done;
  !ok

(* One trimmed, nonempty, non-comment probe line: [`Dec] looks like
   the native decimal format (keep scanning), [`Hexish] like an
   external address record, [`Junk] like neither — stop and stay
   [Text] so the text loader's own bad-line diagnostic fires. *)
let classify_probe_line s =
  let tok_end =
    let i = ref 0 in
    while
      !i < String.length s && not (s.[!i] = ' ' || s.[!i] = '\t')
    do
      incr i
    done;
    !i
  in
  let tok = String.sub s 0 tok_end in
  let multi = tok_end < String.length s in
  match s.[0] with
  | ('I' | 'L' | 'S' | 'M') when multi -> `Hexish
  | _ ->
    if String.contains s ',' then `Hexish
    else if (not multi) && is_dec_token tok then `Dec
    else if is_hex_token tok then `Hexish
    else `Junk

let text_probe_is_hex probe ~truncated =
  let lines = String.split_on_char '\n' probe in
  let lines =
    (* The probe may have been cut mid-line; never judge the fragment. *)
    if truncated then match List.rev lines with _ :: tl -> List.rev tl | [] -> []
    else lines
  in
  let verdict = ref None in
  let inspected = ref 0 in
  List.iter
    (fun l ->
      let s = String.trim l in
      if
        Option.is_none !verdict
        && !inspected < 16
        && not (String.equal s "" || s.[0] = '#')
      then begin
        incr inspected;
        match classify_probe_line s with
        | `Dec -> ()
        | `Hexish -> verdict := Some true
        | `Junk -> verdict := Some false
      end)
    lines;
  Option.value !verdict ~default:false

(* One open, one sniff: read up to 4 bytes, dispatch on them, and for
   non-magic files inspect a bounded text probe before rewinding so
   the sniffed bytes are parsed as content. *)
let sniff_format ic =
  let len = in_channel_length ic in
  let head = really_input_string ic (min 4 len) in
  if String.equal head magic then Binary
  else if String.equal head Stream.magic then Streamed
  else begin
    seek_in ic 0;
    let probe = really_input_string ic (min probe_bytes len) in
    seek_in ic 0;
    if text_probe_is_hex probe ~truncated:(len > probe_bytes) then Hex else Text
  end

let format_of_file path = with_in path sniff_format

let hex_refusal path =
  parse_error path
    "looks like a hex address trace, not a decimal page trace; convert it \
     with `atsim trace import --page-bits N` first"

let load path =
  with_in path (fun ic ->
      match sniff_format ic with
      | Binary -> load_binary_body path ic
      | Streamed -> Stream.to_array_of_reader (Stream.reader_of_channel path ic)
      | Text -> load_text_ic path ic
      | Hex -> hex_refusal path)

let pack ?chunk_size ~src ~dst () =
  with_in src (fun ic ->
      Stream.with_writer ?chunk_size dst (fun w ->
          match sniff_format ic with
          | Binary ->
            let n =
              match read_u64 ic with
              | exception End_of_file -> parse_error src "truncated header"
              | n -> n
            in
            (try
               for _ = 1 to n do
                 Stream.push w (read_u64 ic)
               done
             with End_of_file -> parse_error src "truncated body")
          | Streamed ->
            let r = Stream.reader_of_channel src ic in
            let rec go () =
              match Stream.next_chunk r with
              | None -> ()
              | Some c ->
                for i = 0 to Bigarray.Array1.dim c - 1 do
                  Stream.push w (Bigarray.Array1.unsafe_get c i)
                done;
                go ()
            in
            go ()
          | Text ->
            (try
               while true do
                 let line = String.trim (input_line ic) in
                 if line <> "" && line.[0] <> '#' then begin
                   match int_of_string_opt line with
                   | Some page -> Stream.push w page
                   | None -> parse_error src "bad line %S" line
                 end
               done
             with End_of_file -> ())
          | Hex -> hex_refusal src))

let pp_summary ppf s =
  Format.fprintf ppf "length=%a footprint=%a pages=[%d, %d]"
    Stats.pp_count s.length Stats.pp_count s.footprint s.min_page s.max_page

let replay trace =
  if Array.length trace = 0 then invalid_arg "Trace.replay: empty trace";
  let s = summarize trace in
  let pos = ref 0 in
  let next () =
    if !pos >= Array.length trace then pos := 0;
    let page = trace.(!pos) in
    incr pos;
    page
  in
  {
    Workload.name = "replay";
    virtual_pages = s.max_page + 1;
    description =
      Printf.sprintf "recorded trace of %d references over %d pages, looping"
        s.length s.footprint;
    next;
  }

let workload_of_file path = replay (load path)
