(* The two halves of the `atsim sweep --resume` golden.

     sweep_resume.exe kill FULL K CKPT
       writes the checkpoint a run killed after K sizes leaves behind:
       the first K rows of the --json stream FULL (meta line dropped),
       then the first half of the next row with no newline, as a write
       cut short leaves it.

     sweep_resume.exe check FULL CKPT RESUMED
       checks the stream of the run resumed from CKPT against the
       uninterrupted run's FULL: the same meta line and rows in the same
       order; each row whose task CKPT holds in full is those exact
       bytes, and every other row is FULL's row apart from its wall_s.

   Both exit 1 with a message on stderr when something does not hold. *)

let read_lines path = In_channel.with_open_bin path In_channel.input_lines

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("sweep_resume: " ^ msg);
      exit 1)
    fmt

(* [line] without its "wall_s":<number> field, the one value in a row
   that depends on the host. *)
let drop_wall_s line =
  let key = "\"wall_s\":" in
  let n = String.length line and k = String.length key in
  let rec find i =
    if i + k > n then fail "no wall_s in %s" line
    else if String.sub line i k = key then i
    else find (i + 1)
  in
  let start = find 0 in
  let rec past_value j =
    if j >= n || line.[j] = ',' || line.[j] = '}' then j
    else past_value (j + 1)
  in
  let stop = past_value (start + k) in
  String.sub line 0 start ^ String.sub line stop (n - stop)

let kill full k ckpt =
  match read_lines full with
  | _meta :: rows when List.length rows > k ->
    let kept = List.filteri (fun i _ -> i < k) rows in
    let torn = List.nth rows k in
    Out_channel.with_open_bin ckpt (fun oc ->
        List.iter (fun row -> output_string oc (row ^ "\n")) kept;
        output_string oc (String.sub torn 0 (String.length torn / 2)))
  | _ -> fail "%s has no row after the first %d" full k

let check full ckpt resumed =
  let ckpt_text = In_channel.with_open_bin ckpt In_channel.input_all in
  (* Only newline-terminated rows are complete; the torn tail is not. *)
  let complete =
    match List.rev (String.split_on_char '\n' ckpt_text) with
    | torn :: rows_rev when torn <> "" -> List.rev rows_rev
    | _ -> fail "%s does not end in a torn row" ckpt
  in
  match (read_lines full, read_lines resumed) with
  | meta :: rows, meta' :: rows' ->
    if meta <> meta' then fail "meta lines differ";
    if List.length rows <> List.length rows' then
      fail "%d rows resumed, %d in the full run" (List.length rows')
        (List.length rows);
    let replayed = ref 0 and recomputed = ref 0 in
    List.iteri
      (fun i (row, row') ->
        if List.mem row' complete then incr replayed
        else if List.mem row complete then
          fail "row %d was checkpointed but not replayed byte for byte" (i + 1)
        else if drop_wall_s row = drop_wall_s row' then incr recomputed
        else fail "row %d differs from the full run apart from wall_s" (i + 1))
      (List.combine rows rows');
    if !replayed <> List.length complete then
      fail "%d of %d checkpointed rows replayed" !replayed
        (List.length complete);
    Printf.printf "%d rows replayed byte for byte, %d recomputed\n" !replayed
      !recomputed
  | _ -> fail "empty stream"

let () =
  match Sys.argv with
  | [| _; "kill"; full; k; ckpt |] -> kill full (int_of_string k) ckpt
  | [| _; "check"; full; ckpt; resumed |] -> check full ckpt resumed
  | _ -> fail "usage: kill FULL K CKPT | check FULL CKPT RESUMED"
