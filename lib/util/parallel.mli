(** Deterministic parallel map over OCaml 5 domains.

    The benchmark harness evaluates many independent simulator
    configurations (one per huge-page size); each closure owns its
    state and reads only immutable inputs, so they parallelize
    trivially.  Results keep their input order.

    Two failure semantics are offered.  {!map} aborts on the first
    exception and re-raises it in the caller {e with the original
    backtrace preserved}: the trace is captured with
    [Printexc.get_raw_backtrace] in the failing domain at the catch
    site and re-raised via [Printexc.raise_with_backtrace], so the
    reported frames point at the task, not at the join.
    {!map_results} never aborts: every task runs to completion and
    each returns its own [Ok result | Error (exn, backtrace)] — the
    primitive the experiment runner ({!module:Atp_exp}) builds
    per-task outcome rows on.

    On OCaml < 5 (no [Domain]) a sequential implementation with the
    same interface is selected at build time. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] evaluates [f] on every element using up to
    [domains] domains (default: the recommended count, capped at the
    number of elements).  [f] must not share mutable state across
    calls.  With [domains = 1] this is [List.map].  The first task
    exception is re-raised in the caller with its original backtrace;
    remaining unstarted tasks are skipped.
    @raise Invalid_argument if [domains] is given and less than 1. *)

val map_results :
  ?domains:int ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** Like {!map}, but a raising task never aborts the sweep: each
    element maps to [Ok result] or [Error (exn, backtrace)], with the
    backtrace captured in the raising domain.  All tasks run.
    @raise Invalid_argument if [domains] is given and less than 1. *)
