(* Shared container framing: magic tags, big-endian CRC-32 integrity
   seals, and the uvarint/length-prefixed reader every byte container
   in the tree uses (wire bundles, chunked images, the BRISC
   container). Factoring it here keeps the three formats byte-identical
   while removing three hand-rolled copies of the same code. *)

(* ---- writer side ---- *)

let put_str buf s =
  Util.uleb128 buf (String.length s);
  Buffer.add_string buf s

let put_bytes buf (b : Bytes.t) =
  Util.uleb128 buf (Bytes.length b);
  Buffer.add_bytes buf b

let crc_be body =
  let crc = Util.crc32 body in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((crc lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((crc lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((crc lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (crc land 0xff));
  Bytes.to_string hdr

(* [seal body] = crc32(body) ^ body (the wire layout);
   [seal ~magic body] = magic ^ crc32(body) ^ body (the chunked layout) *)
let seal ?(magic = "") body = magic ^ crc_be body ^ body

(* Validate a sealed image and return the offset of the body. The
   magic (when given) is checked before the CRC so a wrong-container
   error reads as [Bad_magic], not [Checksum]. *)
let verify ~decoder ?(magic = "") s =
  let fail kind msg = Decode_error.fail ~decoder ~kind ~pos:0 msg in
  let mlen = String.length magic in
  if mlen > 0 then begin
    if String.length s < mlen + 4 || String.sub s 0 mlen <> magic then
      fail Decode_error.Bad_magic "bad magic"
  end
  else if String.length s < 5 then
    fail Decode_error.Truncated "truncated input";
  let stored =
    (Char.code s.[mlen] lsl 24)
    lor (Char.code s.[mlen + 1] lsl 16)
    lor (Char.code s.[mlen + 2] lsl 8)
    lor Char.code s.[mlen + 3]
  in
  if Util.crc32 ~pos:(mlen + 4) s <> stored then
    fail Decode_error.Checksum "checksum mismatch (corrupt image)";
  mlen + 4

(* ---- reader side ---- *)

type reader = { src : string; pos : int ref; decoder : string }

let reader ~decoder ?(pos = 0) src = { src; pos = ref pos; decoder }
let position r = !(r.pos)
let src r = r.src

(* Escape hatch for legacy sub-parsers written against (string, int ref)
   cursors; mutations through the ref are seen by the reader. *)
let cursor r = r.pos
let remaining r = String.length r.src - !(r.pos)

let fail r kind msg =
  Decode_error.fail ~decoder:r.decoder ~kind ~pos:!(r.pos) msg

let u r = Util.read_uleb128 r.src r.pos
let sleb r = Util.read_sleb r.src r.pos

(* Validate a count field before allocating anything proportional to
   it: every element of these formats costs at least one input byte. *)
let check_count r n what =
  if n < 0 || n > remaining r then
    fail r Decode_error.Limit
      (Printf.sprintf "%s count %d exceeds remaining %d bytes" what n
         (remaining r))

(* consume the next [n] bytes, returning their offset in [src r] *)
let skip r ?(what = "input") n =
  if n < 0 || !(r.pos) + n > String.length r.src then
    fail r Decode_error.Truncated ("truncated " ^ what);
  let p = !(r.pos) in
  r.pos := p + n;
  p

let raw r ?what n =
  let p = skip r ?what n in
  String.sub r.src p n

let str ?what r =
  let n = u r in
  raw r ?what n

(* [str] without the copy: the (offset, length) of the field's bytes
   within [src r] *)
let field ?what r =
  let n = u r in
  (skip r ?what n, n)

let byte r ?(what = "input") () =
  if !(r.pos) >= String.length r.src then
    fail r Decode_error.Truncated ("truncated " ^ what);
  let c = r.src.[!(r.pos)] in
  incr r.pos;
  c

let expect_magic r magic =
  let n = String.length magic in
  if remaining r < n || String.sub r.src !(r.pos) n <> magic then
    fail r Decode_error.Bad_magic "bad magic";
  r.pos := !(r.pos) + n

let expect_end r what =
  if remaining r <> 0 then
    fail r Decode_error.Inconsistent ("trailing bytes after " ^ what)
