type span = {
  id : int;
  parent : int;
  req : int;
  name : string;
  start : float;
  mutable stop : float;
}

type t = { enabled : bool; mutable next_id : int; mutable rev : span list }

let create ~enabled = { enabled; next_id = 0; rev = [] }

let dummy = { id = -1; parent = -1; req = -1; name = ""; start = 0.; stop = 0. }

let enter t ?parent ~req name =
  if not t.enabled then dummy
  else begin
    let parent = match parent with Some p -> p.id | None -> -1 in
    let start = Proc.now () in
    let s = { id = t.next_id; parent; req; name; start; stop = nan } in
    t.next_id <- t.next_id + 1;
    t.rev <- s :: t.rev;
    s
  end

let leave t s = if t.enabled then s.stop <- Proc.now ()

let spans t = List.rev t.rev

let dur s = s.stop -. s.start

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let sum = Option.value ~default:0. (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (sum +. dur s))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      (s, dur s -. kids))
    spans

let self_total spans name =
  List.fold_left
    (fun acc (s, self) -> if String.equal s.name name then acc +. self else acc)
    0. (self_times spans)

let write_jsonl path spans =
  let t0 = match spans with s :: _ -> s.start | [] -> 0. in
  let ns x = Printf.sprintf "%.0f" (x *. 1e9) in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\
             \"start_ns\":%s,\"dur_ns\":%s,\"self_ns\":%s}\n"
            s.id s.parent s.req s.name
            (ns (s.start -. t0))
            (ns (dur s))
            (ns self))
        (self_times spans))
