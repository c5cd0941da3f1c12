(* A child process with known behaviour for the Proc tests:
     child.exe alloc MIB   touch MIB MiB, then exit 0
     child.exe exit N      exit with code N
     child.exe sleep S     sleep S seconds *)

let () =
  match Sys.argv with
  | [| _; "alloc"; mib |] ->
    let b = Bytes.create (int_of_string mib lsl 20) in
    Bytes.fill b 0 (Bytes.length b) 'x';
    exit (if Bytes.get b (Bytes.length b - 1) = 'x' then 0 else 1)
  | [| _; "exit"; n |] -> exit (int_of_string n)
  | [| _; "sleep"; s |] -> Unix.sleepf (float_of_string s)
  | _ -> exit 2
