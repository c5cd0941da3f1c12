(** Timed child processes ([rusage_stubs.c]). *)

type result = {
  exit_code : int;  (** -1 when a signal ended the child *)
  signal : int;  (** 0 when the child exited *)
  wall_s : float;  (** monotonic time from fork to reap *)
  cpu_s : float;  (** the child's user + system time *)
  maxrss_kb : int;
      (** the child's peak resident set; fork copies the caller's, so it
          is at least the caller's resident set at the call *)
}

val run :
  ?timeout_s:int ->
  stdout:string ->
  stderr:string ->
  string ->
  string list ->
  result
(** [run ~stdout ~stderr prog args] runs [prog] with [args] (argv[0] is
    [prog]), its output redirected to the two files, waits for it, and
    reports how it ended.  A child still running after [timeout_s]
    seconds (default 120; 0 means none) is ended by SIGALRM.
    @raise Failure if the fork or the wait fails. *)

val now : unit -> float
(** CLOCK_MONOTONIC, in seconds. *)

val ok : result -> bool
(** Exited with code 0. *)

val describe : result -> string
(** "exit N" or "signal N" (with "timeout" for SIGALRM). *)
