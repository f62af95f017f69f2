(** Shared on-disk wire primitives for every durable artifact —
    checkpoint snapshots ({!Legodb_search.Checkpoint}), storage
    snapshots and the query server's write-ahead log
    ({!Legodb_serve.Wal}).

    The format family is the one PR 4's checkpoint codec introduced:
    everything is data (no [Marshal], no closures), newline-terminated
    tokens for tags and numbers, length-prefixed strings that may
    contain anything, floats as [%h] hex literals so they round-trip
    bit-exactly, and a whole-payload CRC-32 checked {e before} any
    decoding begins.  This module is that codec's substrate, extracted
    so the checkpoint, the storage snapshot, and the WAL share one
    implementation of the primitives and of the header framing.

    {2 Durability}

    {!write_atomic} is the hardened atomic file write every snapshot
    goes through: payload to a temp file, [fsync] the temp file {e
    before} the rename (so the rename never publishes a name whose
    bytes are still in the page cache), rename over the destination,
    then [fsync] the parent directory (so the rename itself survives
    power loss, not just process death).

    All file I/O goes through an injectable {!fs} record — the
    fault-injection seam the crash–recover tests drive with short
    writes, failing fsyncs, and crash points, mirroring the
    [?inject] hook of {!Legodb_search.Cost_engine}. *)

exception Corrupt of string
(** An image failed validation: bad magic, unsupported version,
    truncation, checksum mismatch, or a malformed payload.  The message
    is one line naming the defect.  Consumers wrap it in their own
    exception ({!Legodb_search.Checkpoint.Corrupt} → exit 7,
    {!Legodb_serve.Wal.Corrupt} → exit 8). *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string; table-driven. *)

(** {1 Payload writers}

    Tokens (tags, ints, floats) are newline-terminated; strings are
    length-prefixed so they may contain anything, newlines included. *)

val w_line : Buffer.t -> string -> unit
val w_int : Buffer.t -> int -> unit
val w_float : Buffer.t -> float -> unit
(** Written as a [%h] hex literal: reading it back yields the identical
    bit pattern. *)

val w_str : Buffer.t -> string -> unit
val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val w_opt : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

(** {1 Payload readers}

    All readers raise {!Corrupt} on malformed input; none read past the
    cursor's buffer. *)

type cursor = { buf : string; mutable pos : int }

val cursor : string -> cursor
val r_line : cursor -> string
val r_int : cursor -> int
val r_float : cursor -> float
val r_str : cursor -> string
val r_list : cursor -> (cursor -> 'a) -> 'a list
val r_opt : cursor -> (cursor -> 'a) -> 'a option

val expect_end : cursor -> string -> unit
(** [expect_end cur what] — the payload must be fully consumed;
    [what] names the message in the error ("request", "WAL record").
    @raise Corrupt on trailing bytes *)

(** {1 Frame headers}

    Every checksummed unit the system writes — file images, network
    messages, WAL records — starts with one header line

    {v <head> <crc32-hex> <payload-bytes> v}

    that {!header} prints and {!parse_header} reads back.  Three shapes
    are in use:

    - {b file images and network frames}: [<head>] is
      [<magic> <version>] and the payload follows the line — checkpoint
      files ([LEGODB-CKPT 1]), storage snapshots ([LEGODB-SNAP 1]) and
      every protocol message ([LEGODB-NET 1]).  {!frame}/{!unframe}
      build and validate whole file images; the network front door
      validates the same header incrementally as bytes arrive.
    - {b WAL records}: [<head>] is a one-letter tag, [R] for a single
      append or [G] for a commit group, and the payload is followed by
      one ['\n'] terminator.
    - {b the WAL file header}: the bare [LEGODB-WAL 1] line that opens
      the log.  It carries no checksum or length, so only
      {!check_version} applies to it.

    The checksum field is always 8 lowercase hex digits and the length
    canonical decimal; any other spelling of the same numbers is
    rejected, so a single flipped bit can never parse back to the same
    header. *)

val header : string -> string -> string
(** [header head payload] — the line ["<head> <crc32> <len>\n"] for
    [payload] ([head] must not contain a newline). *)

val parse_header : string -> string list * int32 * int
(** [parse_header line] splits a header line (without its newline)
    into the space-separated [<head>] tokens, the checksum and the
    payload length.
    @raise Corrupt when a field is missing, the checksum is not exactly
    8 lowercase hex digits, or the length is not canonical decimal. *)

val check_crc : int32 -> string -> unit
(** [check_crc expected payload]
    @raise Corrupt when [payload] does not hash to [expected]. *)

val check_version :
  magic:string -> version:int -> kind:string -> string list -> unit
(** [check_version ~magic ~version ~kind head] accepts exactly the
    head tokens [[magic; string_of_int version]].  [kind] names the
    artifact in error messages ("checkpoint", "network frame", "WAL").
    @raise Corrupt on a bad magic or an unsupported version, each
    reported distinctly. *)

val frame : magic:string -> version:int -> string -> string
(** [frame ~magic ~version payload] — the full file image: header line
    then payload. *)

val unframe : magic:string -> version:int -> kind:string -> string -> string
(** Validate a file image's header (shape, magic, version, length,
    CRC) and return the payload.  [kind] names the artifact in error
    messages, so truncated / bit-flipped / wrong-version / wrong-magic
    images are each reported distinctly.
    @raise Corrupt *)

(** {1 File I/O with an injectable fault seam} *)

type fs = {
  write : Unix.file_descr -> string -> unit;
      (** write the whole string (or raise) *)
  fsync : Unix.file_descr -> unit;
  rename : string -> string -> unit;
}
(** The three primitives every durable write decomposes into.  Tests
    substitute implementations that write short, fail fsync, or raise a
    crash exception after the k-th operation; production code uses
    {!real_fs}. *)

val real_fs : fs

val write_atomic : ?fs:fs -> path:string -> string -> unit
(** Durable atomic replace of [path]: write to [path ^ ".tmp"], fsync
    it, rename over [path], fsync the parent directory.  A crash at any
    point leaves either the old file or the new one, never a mix, and a
    completed call survives power loss.  @raise Sys_error / [Unix_error]
    on I/O failure. *)

val read_file : string -> string
(** The whole file as a string.  @raise Sys_error *)
