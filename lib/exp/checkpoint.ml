module Json = Atp_obs.Json

let load path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> []
  | lines ->
    (* A killed run can leave a torn final line; a malformed line is
       simply not a completed task and its task re-runs on resume. *)
    List.filter_map
      (fun line ->
        if String.length line = 0 then None
        else
          match Json.of_string line with
          | Error _ -> None
          | Ok json -> (
            match Schema.task_of_row json with
            | Some task -> Some (task, line)
            | None -> None))
      lines

type t = { oc : out_channel; lock : Mutex.t }

let ensure_parent_dir path =
  let dir = Filename.dirname path in
  let rec mk d =
    if not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      (* A concurrent creator is fine; re-check instead of failing. *)
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  mk dir

(* Whether [path] is non-empty and does not end in a newline: the torn
   last line a killed run leaves. *)
let ends_torn path =
  match
    In_channel.with_open_bin path (fun ic ->
        let len = In_channel.length ic in
        Int64.compare len 0L > 0
        && begin
          In_channel.seek ic (Int64.pred len);
          not (Option.equal Char.equal (In_channel.input_char ic) (Some '\n'))
        end)
  with
  | torn -> torn
  | exception Sys_error _ -> false

let create ~append path =
  ensure_parent_dir path;
  let flags =
    (if append then [ Open_append ] else [ Open_trunc ])
    @ [ Open_wronly; Open_creat ]
  in
  let torn = append && ends_torn path in
  let oc = open_out_gen flags 0o644 path in
  (* End the torn line, so the first new row starts a line of its own. *)
  if torn then output_char oc '\n';
  { oc; lock = Mutex.create () }

let append t line =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      (* Durability is the point: the row must be on disk before the
         task counts as finished, or a kill window would lose it. *)
      flush t.oc)

let close t = close_out t.oc

let remove path = if Sys.file_exists path then Sys.remove path
