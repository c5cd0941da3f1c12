(** Trace persistence and summary statistics, so users can bring their
    own recorded page traces (the paper's graph500 experiment replays
    one) and so generated traces can be archived.

    Three on-disk formats are supported, dispatched on magic bytes:
    - {e text}: one decimal page per line, [#] comments;
    - {e binary} ("ATPT"): a count then fixed-width 64-bit pages;
    - {e streamed} ("ATPS", {!module:Stream}): delta-encoded varint
      chunks behind a Bigarray-backed reader, so billion-reference
      traces replay without ever being fully resident. *)

type summary = {
  length : int;
  footprint : int;  (** distinct pages touched *)
  min_page : int;
  max_page : int;
}

exception Parse_error of { path : string; what : string }
(** A trace file that cannot be decoded: bad magic, truncated frame,
    or a malformed text line.  [path] is the offending file and [what]
    a human-readable description. *)

val summarize : int array -> summary

val save_text : string -> int array -> unit
(** One decimal page number per line. *)

val load_text : string -> int array
(** Ignores blank lines and [#]-comments.  Parses into a growable flat
    int buffer — peak memory is one over-allocated array, not a boxed
    list.
    @raise Parse_error on a malformed line. *)

val save_binary : string -> int array -> unit
(** A small framed format: magic "ATPT", a 64-bit little-endian count,
    then 64-bit little-endian page numbers. *)

val load_binary : string -> int array
(** @raise Parse_error on bad magic or a truncated file. *)

(** The streamed trace format, magic "ATPS": a fixed header (magic,
    64-bit version, chunk size, reference count) followed by framed
    chunks.  Each chunk stores its first reference absolute and the
    rest as deltas from the previous reference, all as zigzag LEB128
    varints — graph traces are locality-heavy, so deltas are short —
    and decodes standalone.  Readers hold one chunk at a time in a
    reused Bigarray, so memory is bounded by the chunk size whatever
    the trace length.  Values must fit 62 signed bits. *)
module Stream : sig
  val magic : string
  (** ["ATPS"]. *)

  val version : int

  val default_chunk_size : int
  (** 65536 references per chunk. *)

  type header = { version : int; chunk_size : int; length : int }

  type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** A decoded run of references.  The array is a view into the
      reader's reused buffer: consume it before the next
      {!next_chunk} call. *)

  type writer

  val open_writer : ?chunk_size:int -> string -> writer
  (** Create or truncate a streamed trace at the path.  The header's
      reference count is patched on {!close_writer}, so the target
      must be a seekable regular file.
      @raise Invalid_argument if [chunk_size < 1]. *)

  val push : writer -> int -> unit
  (** Append one reference; flushes a frame every [chunk_size] pushes.
      @raise Invalid_argument if the writer is closed. *)

  val close_writer : writer -> unit
  (** Flush the final partial chunk, patch the header count, close the
      file.  Idempotent. *)

  val with_writer : ?chunk_size:int -> string -> (writer -> 'a) -> 'a
  (** Bracket: closes (and so finalizes the header) on any exit.
      @raise Invalid_argument if [chunk_size < 1]. *)

  type reader

  val open_reader : string -> reader
  (** @raise Parse_error on bad magic or a malformed header.
      @raise Sys_error if the file cannot be opened. *)

  val header : reader -> header

  val next_chunk : reader -> chunk option
  (** The next decoded chunk, or [None] once the declared count has
      been delivered.  The returned view aliases the reader's buffer.
      @raise Parse_error on a truncated or corrupt frame. *)

  val fold_chunks : ('a -> chunk -> int -> 'a) -> 'a -> reader -> 'a
  (** [fold_chunks f acc r] runs [f acc buf n] for each chunk, where
      [buf] is the reader's {e reused} full-size buffer and only its
      first [n] elements are valid.  Zero-copy and allocation-free per
      chunk ({!next_chunk} allocates a sub view and an option each
      call).  [buf]'s contents are invalid after [f] returns.
      @raise Parse_error on a truncated or corrupt frame. *)

  val read_into : reader -> int array -> int -> int -> int
  (** [read_into r dst pos len] fills [dst.(pos..pos+len-1)] with the
      next refs of the stream, returning how many were written —
      short only at end of stream.  Decodes through the reused chunk
      buffer; no per-ref allocation.  May be freely interleaved with
      {!next_chunk}/{!fold_chunks}, which always consume whole chunks.
      @raise Invalid_argument on a bad range.
      @raise Parse_error on a truncated or corrupt frame. *)

  val close_reader : reader -> unit
  (** Idempotent. *)

  val with_reader : string -> (reader -> 'a) -> 'a
  (** @raise Parse_error on bad magic or a malformed header. *)

  val iter : (int -> unit) -> string -> unit
  (** Visit every reference in file order, one chunk resident at a
      time.
      @raise Parse_error on a corrupt file. *)

  val source : string -> unit -> int option
  (** A pull stream of the file's references ([None] = end), the shape
      the sharded engine consumes.  The underlying file closes when
      the stream is exhausted.
      @raise Parse_error (from the pull calls) on a corrupt file. *)

  val to_array : string -> int array
  (** Materialize a whole streamed trace (for small traces and tests).
      @raise Parse_error on a corrupt file or a count mismatch. *)

  val pack_array : ?chunk_size:int -> string -> int array -> unit
  (** Write [trace] as a streamed file.
      @raise Invalid_argument if [chunk_size < 1]. *)
end

type format = Text | Binary | Streamed | Hex
(** [Hex] is recognized but not loadable: an external address trace
    (the classic one-hex-address-per-line [trace.tr] and relatives)
    that must go through {!Import} to become page references. *)

val pp_format : Format.formatter -> format -> unit

val format_of_file : string -> format
(** Sniff a file's format: "ATPT"/"ATPS" magic bytes dispatch to
    [Binary]/[Streamed]; otherwise the first content lines are
    inspected and address-shaped ones (hex letters, [0x] prefixes,
    extra columns, commas, lackey records) classify the file as
    [Hex] rather than misreading it as the decimal [Text] format.  A
    file of bare digit-only single-column lines is ambiguous and
    sniffs as [Text]. *)

val load : string -> int array
(** Load any of the three native formats, dispatching as
    {!format_of_file} with a single open of the file.
    @raise Parse_error on a malformed file of any format, and on a
      file sniffed as [Hex] (with a pointer at [atsim trace
      import]). *)

val pack : ?chunk_size:int -> src:string -> dst:string -> unit -> unit
(** Convert [src] (any native format) into a streamed "ATPS" file at
    [dst] without materializing the trace: references are pumped one
    chunk at a time from reader to writer.
    @raise Parse_error if [src] is malformed or sniffs as [Hex]. *)

val pp_summary : Format.formatter -> summary -> unit

val replay : ?loop:bool -> int array -> Workload.t
(** Turn a recorded trace into a workload.  With [loop] (default
    true) the trace wraps around; otherwise exhausting it raises
    [End_of_file] — useful when the consumer must not silently
    recycle.

    @raise Invalid_argument if the trace is empty. *)

val workload_of_file : ?loop:bool -> string -> Workload.t
(** {!replay} over {!load}: any format, one open.
    @raise Parse_error on a malformed file.
    @raise Invalid_argument if the file holds no references. *)
