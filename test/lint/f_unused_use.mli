(* unused-export fixture: the caller of F_unused_def; exports nothing. *)
