(** Streaming importers for externally recorded memory traces.

    Everything the simulator replays natively is a page-reference
    trace ({!Trace}); real programs produce {e address} traces in a
    handful of ad-hoc text formats.  This module converts three of
    them into the streamed ATPS format without ever materializing the
    trace — each parsed address is shifted down to a virtual page
    number and pushed straight into a {!Trace.Stream.writer}, so a
    billion-reference capture imports in constant memory:

    - {e hex} ([trace.tr]): one hexadecimal address per line, with or
      without a [0x] prefix; [#]-comment and blank lines skipped;
      trailing columns (an [R]/[W] marker, an access size) tolerated
      and ignored;
    - {e lackey}: [valgrind --tool=lackey --trace-mem=yes] records —
      [I]/[L]/[S]/[M] kind letter, hex address, optional [,size] —
      with valgrind [==pid==]/[--pid--] banner lines skipped and
      instruction fetches ([I]) filterable;
    - {e csv}: a documented escape hatch — pick the address column,
      its radix, and whether to skip a header line.

    Every malformed input surfaces as {!Trace.Parse_error} carrying
    the path and a [line N:] prefix; importers never let any other
    exception escape on bad bytes and never read unbounded state (a
    line longer than {!max_line_bytes} is itself a parse error). *)

type format = Hex | Lackey | Csv

val pp_format : Format.formatter -> format -> unit

type radix = Decimal | Hexadecimal

type csv = {
  column : int;  (** 1-based index of the address column *)
  radix : radix;  (** how to read that column *)
  skip_header : bool;  (** drop the first line of the file *)
}

type config = {
  page_bits : int;
      (** VPN = address lsr page_bits (12 for 4 KiB pages) *)
  limit : int option;  (** stop after this many emitted references *)
  dedup_consecutive : bool;
      (** drop a reference equal to the previously emitted VPN *)
  drop_instr : bool;
      (** lackey only: drop instruction-fetch ([I]) records *)
  csv : csv;
}

val default : config
(** [page_bits = 12], no limit, no dedup, instruction fetches kept;
    CSV addresses in hexadecimal in column 1, no header. *)

type stats = {
  lines : int;  (** input lines read *)
  parsed : int;
      (** address records parsed and kept (instruction fetches dropped
          by [drop_instr] do not count, deduped references do) *)
  emitted : int;  (** references handed to the sink *)
}

val pp_stats : Format.formatter -> stats -> unit

val max_line_bytes : int
(** Upper bound on one input line (64 KiB); real trace lines are tens
    of bytes, so anything longer is treated as corruption rather than
    buffered without bound. *)

val sniff : string -> [ `Import of format | `Native of Trace.format ]
(** Guess what kind of trace file sits at the path.  Files with an
    ATPT/ATPS magic or plain decimal page-per-line content are
    [`Native] (already loadable by {!Trace.load}); lackey records, a
    comma-separated layout, and hex-looking address columns are
    [`Import].  A file of bare digit-only lines is ambiguous and
    sniffs as [`Native Text]; force [~format] at the call site to
    read it as hex addresses.
    @raise Sys_error if the file cannot be opened. *)

val import : ?config:config -> format:format -> string -> (int -> unit) -> stats
(** [import ~config ~format path sink] parses the file, converting
    each address record to a VPN and feeding it to [sink] in file
    order, streaming line by line.
    @raise Trace.Parse_error on any malformed line, with the 1-based
      line number in the message.
    @raise Invalid_argument if the config is out of range
      ([page_bits] outside [0, 62], [limit < 0], [csv.column < 1]).
    @raise Sys_error if the file cannot be opened. *)

val import_file :
  ?chunk_size:int ->
  ?config:config ->
  ?format:format ->
  src:string ->
  dst:string ->
  unit ->
  stats
(** {!import} into a {!Trace.Stream.writer} at [dst]: the standard
    external-trace-to-ATPS conversion, one chunk resident at a time.
    Without [?format] the source is sniffed; a [`Native] source is
    rejected (convert those with {!Trace.pack}).  On a parse error
    the partial [dst] is removed before the error propagates.
    @raise Trace.Parse_error on malformed input or an unsniffable
      native source.
    @raise Invalid_argument on a bad config or [chunk_size < 1].
    @raise Sys_error if either file cannot be opened. *)
