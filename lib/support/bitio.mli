(** Bit-level readers and writers over growable byte buffers.

    Bits are packed LSB-first within each byte (the DEFLATE convention):
    the first bit written becomes bit 0 of byte 0. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Fresh writer. [capacity] is an initial byte-buffer size hint. *)

  val put_bit : t -> int -> unit
  (** [put_bit w b] appends the low bit of [b]. *)

  val put_bits : t -> int -> int -> unit
  (** [put_bits w v n] appends the [n] low bits of [v], LSB first.
      [n] must be within [0, 56]. Safe at the full window even with
      pending bits: wide fields are split internally so no high bit is
      ever shifted out of the native-int accumulator. *)

  val put_bits_msb : t -> int -> int -> unit
  (** [put_bits_msb w v n] appends the [n] low bits of [v], MSB first —
      the natural order for canonical Huffman codes. *)

  val align_byte : t -> unit
  (** Pad with zero bits to the next byte boundary. *)

  val put_byte : t -> int -> unit
  (** Append a whole byte; the writer need not be byte-aligned. *)

  val put_bytes : t -> Bytes.t -> unit
  (** Append all bytes of the argument. *)

  val put_string : t -> string -> unit

  val bit_length : t -> int
  (** Number of bits written so far. *)

  val contents : t -> Bytes.t
  (** Flush (zero-padding the final partial byte) and return a copy of the
      written bytes. The writer remains usable. *)
end

module Reader : sig
  type t

  val of_bytes : Bytes.t -> t
  val of_string : string -> t

  val of_substring : string -> pos:int -> len:int -> t
  (** A reader over bytes [pos, pos + len) of the string, without
      copying them. Positions it reports ({!bit_position}) and the end
      of input it sees are those of the substring alone, exactly as for
      [of_string (String.sub s pos len)].
      @raise Invalid_argument when the range is outside the string. *)

  val get_bit : t -> int
  (** Next bit, LSB-first within bytes. @raise Failure on exhaustion. *)

  val get_bits : t -> int -> int
  (** [get_bits r n] reads [n] bits LSB-first, [n] within [0, 56]. *)

  val get_fields : t -> count:int -> width:int -> int array
  (** [count] consecutive [width]-bit fields ([width] within [1, 16]),
      as [count] calls of [get_bits r width] would read them, but
      several fields per word-sized read. *)

  val get_bits_msb : t -> int -> int
  (** [get_bits_msb r n] reads [n] bits MSB-first (Huffman order). *)

  val align_byte : t -> unit
  (** Skip to the next byte boundary. *)

  val get_byte : t -> int

  val get_string : t -> int -> string
  (** [get_string r n] reads [n] whole bytes with a single blit. The
      reader must be byte-aligned ([Invalid_argument] otherwise);
      @raise Failure on exhaustion. *)

  val peek_bits : t -> int -> int
  (** [peek_bits r n] returns the next [n] bits (LSB-first, [n] within
      [0, 32]) without consuming them, reading whole words rather than
      single bits. Bits past the end of the input read as zero — the
      word-at-a-time refill path for table-driven decoders, which must
      be able to probe a full table index near the end of the stream. *)

  val advance_bits : t -> int -> unit
  (** Consume [n] bits previously examined with {!peek_bits}.
      @raise Failure if fewer than [n] bits remain. *)

  val bits_remaining : t -> int
  val bit_position : t -> int

  val seek_bit : t -> int -> unit
  (** Absolute bit seek; used for random access into block-addressed
      streams. @raise Invalid_argument when out of range. *)
end
