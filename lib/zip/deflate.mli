(** Our gzip stand-in: LZ77 + dynamic canonical-Huffman entropy coding.

    The format follows DEFLATE's structure — a literal/length alphabet
    (256 literals, end-of-block, 29 length classes with extra bits) and a
    30-class distance alphabet — in a single dynamic-Huffman block with a
    plain 5-bit length table header. It is not bit-compatible with RFC
    1951, but it is the same algorithm family, so compression ratios are
    representative of gzip's. Used both as the paper's "gzip" baseline and
    as the final stage of the wire format (§3 step 5). *)

val compress : ?dict:string -> string -> string
(** [encode_tokens ~source:s ~orig_len:(String.length s) (Lz77.tokenize s)].
    Output never exceeds input + 5 bytes: incompressible input falls back
    to a stored block (a 1-bit block type after the length header, then
    the bytes verbatim — RFC 1951 §3.2.4's escape hatch). [dict]
    (default empty, byte-identical to the historical output) primes the
    LZ77 window ({!Lz77.tokenize}'s [dict]); {!decompress} must then be
    given the same bytes. *)

val encode_tokens :
  ?source:string -> ?packed:bool -> orig_len:int -> Lz77.token list -> string
(** The entropy-coding half of {!compress}, split out so the codec layer
    can time the LZ77 and Huffman stages independently. [orig_len] is
    the uncompressed length recorded in the 32-bit header. When [source]
    (the uncompressed bytes, length [orig_len]) is given, the encoder
    emits a stored block instead whenever that is strictly smaller, so
    output is bounded by [orig_len + 5]. Without [source] the output is
    always a Huffman block. [packed] (default false) compresses the
    code-length tables RFC 1951 §3.2.7-style — trimmed, run-length
    encoded and Huffman coded, ~185 bytes down to ~60 per block —
    signalled by the top bit of the 16-bit table-count field, which no
    legacy stream can carry; {!decompress} reads both layouts. Plain
    {!compress} keeps the raw layout because its bytes are
    golden-pinned. *)

(** {2 Token class tables (RFC 1951 layout)}

    Shared with {!Lza}, the range-coded token stream: both formats
    bucket match lengths into 29 classes and distances into 30, with
    the class carrying the entropy-coded symbol and the extra bits
    riding uncoded. *)

val length_base : int array
val length_extra : int array
val dist_base : int array
val dist_extra : int array

val length_class : int -> int
(** Class of a match length in 3..258. @raise Invalid_argument outside. *)

val dist_class : int -> int
(** Class of a distance in 1..32768. @raise Invalid_argument outside. *)

val cost_model_of_tokens : Lz77.token list -> Lz77.cost_model
(** The actual codeword cost this format would charge, derived from a
    seed parse: Huffman lengths of the literal/length and distance
    codes built over the seed's token frequencies, plus extra bits
    (all scaled by {!Lz77.cost_scale}). Symbols the seed never used
    cost one bit more than the deepest code in use. *)

val tokenize_opt : ?iterations:int -> ?seed:Lz77.token list -> string ->
  Lz77.token list
(** Bit-optimal parse: cost the DAG edges from [seed] (default the
    lazy parse), solve by shortest path, and iterate [iterations]
    (default 2) rounds so the code lengths converge toward the chosen
    parse. *)

val compress_opt : string -> string
(** {!compress} with the bit-optimal parse. Encodes both the lazy and
    the optimal parse and keeps the smaller, so the output never
    exceeds {!compress}'s (and decodes with the same
    {!decompress}). *)

val decompress :
  ?max_output:int -> ?dict:string -> string ->
  (string, Support.Decode_error.t) result
(** [decompress (compress s) = Ok s]. Total: corrupt input yields a
    typed [Error]; the declared output length is checked against
    [max_output] (default 64 MB) before any proportional allocation.
    [dict] primes the window with the same bytes the compressor used; a
    stream compressed with a dictionary decoded without one (or with
    the wrong one) yields an [Error] or wrong bytes — callers seal the
    pairing with a dictionary digest (see [Wire]'s shared final
    stage). *)

val decompress_exn : ?max_output:int -> ?dict:string -> string -> string
(** As {!decompress} but raises {!Support.Decode_error.Fail}; for
    trusted inputs (e.g. bytes this process just compressed). *)

val decompress_sub_exn :
  ?max_output:int -> ?dict:string -> string -> pos:int -> len:int -> string
(** As {!decompress_exn} over the stream held in bytes [pos, pos + len)
    of a larger string, read in place; error positions are relative to
    [pos]. *)

val compressed_size : string -> int
(** [String.length (compress s)] without keeping the output. *)
