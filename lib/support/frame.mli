(** Shared container framing for the byte formats in the tree (wire
    bundles, chunked images, the BRISC container): magic tags,
    big-endian CRC-32 integrity seals, and a bounds-checked
    uvarint/length-prefixed reader. All failures are typed
    {!Decode_error} raises, converted to [Error] by
    {!Decode_error.guard} at decoder boundaries. *)

(** {2 Writer side} *)

val put_str : Buffer.t -> string -> unit
(** Length-prefixed (ULEB128) string. *)

val put_bytes : Buffer.t -> Bytes.t -> unit

val crc_be : string -> string
(** 4-byte big-endian CRC-32 of the argument. *)

val seal : ?magic:string -> string -> string
(** [seal body] is [crc32(body) ^ body]; with [~magic] the magic is
    prepended before the CRC. Inverse of {!verify}. *)

val verify : decoder:string -> ?magic:string -> string -> int
(** Check the magic (when given) and the CRC seal of an image; returns
    the byte offset of the body. Raises [Bad_magic] on a wrong or
    missing magic, [Truncated]/[Checksum] otherwise. *)

(** {2 Reader side} *)

type reader
(** A cursor over untrusted bytes; every accessor below raises a typed
    {!Decode_error.Fail} attributed to the reader's decoder name
    rather than reading out of bounds. *)

val reader : decoder:string -> ?pos:int -> string -> reader
val position : reader -> int
val remaining : reader -> int
val fail : reader -> Decode_error.kind -> string -> 'a

val src : reader -> string
(** The underlying input. *)

val cursor : reader -> int ref
(** The live position ref — an escape hatch for sub-parsers written
    against [(string, int ref)] cursors; their advances are seen by the
    reader. *)

val u : reader -> int
(** ULEB128 varint. *)

val sleb : reader -> int
(** Zigzag-signed ULEB128 varint. *)

val check_count : reader -> int -> string -> unit
(** Reject a count field larger than the remaining input before any
    proportional allocation (every element costs at least one byte). *)

val raw : reader -> ?what:string -> int -> string
(** [n] raw bytes; [what] names the structure in the error message. *)

val str : ?what:string -> reader -> string
(** Length-prefixed (ULEB128) string. *)

val field : ?what:string -> reader -> int * int
(** As {!str} but returns the field's [(offset, length)] within
    {!src} instead of copying its bytes; same checks, same errors. *)

val byte : reader -> ?what:string -> unit -> char
val expect_magic : reader -> string -> unit
val expect_end : reader -> string -> unit
