type result = {
  exit_code : int;
  signal : int;
  wall_s : float;
  cpu_s : float;
  maxrss_kb : int;
}

external run_raw :
  string -> string array -> string -> string -> int -> result = "atpb_run"

external now : unit -> float = "atpb_monotonic_now"

let run ?(timeout_s = 120) ~stdout ~stderr prog args =
  run_raw prog (Array.of_list (prog :: args)) stdout stderr timeout_s

let ok r = r.exit_code = 0

let sigalrm = 14

let describe r =
  if r.signal = 0 then Printf.sprintf "exit %d" r.exit_code
  else if r.signal = sigalrm then "timeout"
  else Printf.sprintf "signal %d" r.signal
