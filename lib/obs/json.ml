type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then begin
      let s = Printf.sprintf "%.12g" f in
      Buffer.add_string buf s;
      (* Bare "1e+06"/"42" are valid JSON numbers; nothing to fix. *)
      if not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s) then
        Buffer.add_string buf ".0"
    end
    else Buffer.add_string buf "null"
  | String s -> escape buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------ *)

(* A recursive-descent parser for the subset this serializer emits
   (which is all of JSON minus exotic number forms).  Errors are
   returned, not raised: checkpoint loading must survive the torn
   trailing line a killed run leaves behind. *)

exception Parse_fail of string

let parse_fail pos msg =
  raise (Parse_fail (Printf.sprintf "at offset %d: %s" pos msg))

type parser_state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> parse_fail st.pos (Printf.sprintf "expected %C, got %C" c got)
  | None -> parse_fail st.pos (Printf.sprintf "expected %C, got end of input" c)

let expect_keyword st kw value =
  let n = String.length kw in
  if
    st.pos + n <= String.length st.src
    && String.equal (String.sub st.src st.pos n) kw
  then begin
    st.pos <- st.pos + n;
    value
  end
  else parse_fail st.pos (Printf.sprintf "expected %s" kw)

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then
    parse_fail st.pos "truncated \\u escape";
  let v = ref 0 in
  for i = st.pos to st.pos + 3 do
    let d =
      match st.src.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> parse_fail i (Printf.sprintf "bad hex digit %C" c)
    in
    v := (!v * 16) + d
  done;
  st.pos <- st.pos + 4;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> parse_fail st.pos "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some '"' ->
        Buffer.add_char buf '"';
        advance st;
        loop ()
      | Some '\\' ->
        Buffer.add_char buf '\\';
        advance st;
        loop ()
      | Some '/' ->
        Buffer.add_char buf '/';
        advance st;
        loop ()
      | Some 'n' ->
        Buffer.add_char buf '\n';
        advance st;
        loop ()
      | Some 'r' ->
        Buffer.add_char buf '\r';
        advance st;
        loop ()
      | Some 't' ->
        Buffer.add_char buf '\t';
        advance st;
        loop ()
      | Some 'b' ->
        Buffer.add_char buf '\b';
        advance st;
        loop ()
      | Some 'f' ->
        Buffer.add_char buf '\012';
        advance st;
        loop ()
      | Some 'u' ->
        advance st;
        let code = parse_hex4 st in
        (match Uchar.of_int code with
         | u -> Buffer.add_utf_8_uchar buf u
         | exception Invalid_argument _ ->
           parse_fail st.pos "unpaired surrogate in \\u escape");
        loop ()
      | Some c -> parse_fail st.pos (Printf.sprintf "bad escape \\%C" c)
      | None -> parse_fail st.pos "truncated escape")
    | Some c when Char.code c < 0x20 ->
      parse_fail st.pos "raw control character in string"
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+') ->
      advance st;
      true
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance st;
      true
    | _ -> false
  in
  while consume () do
    ()
  done;
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> parse_fail start (Printf.sprintf "bad number %S" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* An integer literal too wide for [int]: keep the value, as a
         float. *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_fail start (Printf.sprintf "bad number %S" text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_fail st.pos "expected a value, got end of input"
  | Some 'n' -> expect_keyword st "null" Null
  | Some 't' -> expect_keyword st "true" (Bool true)
  | Some 'f' -> expect_keyword st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [ parse_value st ] in
      skip_ws st;
      while peek st = Some ',' do
        advance st;
        items := parse_value st :: !items;
        skip_ws st
      done;
      expect st ']';
      List (List.rev !items)
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws st;
      while peek st = Some ',' do
        advance st;
        fields := field () :: !fields;
        skip_ws st
      done;
      expect st '}';
      Obj (List.rev !fields)
    end
  | Some c -> parse_fail st.pos (Printf.sprintf "unexpected %C" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error
        (Printf.sprintf "at offset %d: trailing content after value" st.pos)
    else Ok v
  | exception Parse_fail msg -> Error msg

(* --- accessors ---------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let as_int = function
  | Int i -> Some i
  | Null | Bool _ | Float _ | String _ | List _ | Obj _ -> None

let as_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | Null | Bool _ | String _ | List _ | Obj _ -> None

let as_string = function
  | String s -> Some s
  | Null | Bool _ | Int _ | Float _ | List _ | Obj _ -> None
