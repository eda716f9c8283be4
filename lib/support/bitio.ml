module Writer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;          (* complete bytes *)
    mutable acc : int;          (* pending bits, LSB-first *)
    mutable nacc : int;         (* number of pending bits, < 8 *)
  }

  let create ?(capacity = 256) () =
    { buf = Bytes.create (max 16 capacity); len = 0; acc = 0; nacc = 0 }

  let ensure w extra =
    let need = w.len + extra in
    if need > Bytes.length w.buf then begin
      let cap = ref (Bytes.length w.buf * 2) in
      while !cap < need do cap := !cap * 2 done;
      let nb = Bytes.create !cap in
      Bytes.blit w.buf 0 nb 0 w.len;
      w.buf <- nb
    end

  let flush_acc w =
    while w.nacc >= 8 do
      ensure w 1;
      Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (w.acc land 0xff));
      w.len <- w.len + 1;
      w.acc <- w.acc lsr 8;
      w.nacc <- w.nacc - 8
    done

  let put_bit w b =
    w.acc <- w.acc lor ((b land 1) lsl w.nacc);
    w.nacc <- w.nacc + 1;
    if w.nacc = 8 then flush_acc w

  (* The accumulator is a native int, so with up to 7 pending bits a
     full 56-bit field shifted by [nacc] needs 63 bits — the exact edge
     of the representation. Rather than ride that edge (and silently
     drop high bits if the window ever widens), split the field so the
     shifted chunk always stays within 56 bits: emit what fits, flush
     the now-byte-aligned accumulator, then emit the remainder. The
     emitted bit sequence is unchanged, so output stays byte-identical. *)
  let rec put_bits w v n =
    if n < 0 || n > 56 then invalid_arg "Bitio.Writer.put_bits";
    let v = v land ((1 lsl n) - 1) in
    if w.nacc + n > 56 then begin
      let k = 56 - w.nacc in
      w.acc <- w.acc lor ((v land ((1 lsl k) - 1)) lsl w.nacc);
      w.nacc <- 56;
      flush_acc w;
      (* nacc is now 0, so the recursion terminates immediately *)
      put_bits w (v lsr k) (n - k)
    end
    else begin
      w.acc <- w.acc lor (v lsl w.nacc);
      w.nacc <- w.nacc + n;
      flush_acc w
    end

  let put_bits_msb w v n =
    if n < 0 || n > 56 then invalid_arg "Bitio.Writer.put_bits_msb";
    for i = n - 1 downto 0 do put_bit w ((v lsr i) land 1) done

  let align_byte w = if w.nacc > 0 then put_bits w 0 (8 - w.nacc)

  let put_byte w b = put_bits w (b land 0xff) 8

  let put_bytes w b =
    if w.nacc = 0 then begin
      let n = Bytes.length b in
      ensure w n;
      Bytes.blit b 0 w.buf w.len n;
      w.len <- w.len + n
    end
    else Bytes.iter (fun c -> put_byte w (Char.code c)) b

  let put_string w s = put_bytes w (Bytes.unsafe_of_string s)

  let bit_length w = (w.len * 8) + w.nacc

  let contents w =
    let extra = if w.nacc > 0 then 1 else 0 in
    let out = Bytes.create (w.len + extra) in
    Bytes.blit w.buf 0 out 0 w.len;
    if extra = 1 then Bytes.set out w.len (Char.chr (w.acc land 0xff));
    out
end

module Reader = struct
  type t = {
    data : Bytes.t;
    first : int;  (* byte offset of the stream within [data] *)
    limit : int;  (* byte offset one past the stream's end *)
    mutable pos : int;  (* bit position, relative to [first] *)
  }

  let of_bytes b = { data = b; first = 0; limit = Bytes.length b; pos = 0 }
  let of_string s = of_bytes (Bytes.unsafe_of_string s)

  let of_substring s ~pos ~len =
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Bitio.Reader.of_substring";
    { data = Bytes.unsafe_of_string s; first = pos; limit = pos + len; pos = 0 }

  let total_bits r = (r.limit - r.first) * 8
  let bits_remaining r = total_bits r - r.pos
  let bit_position r = r.pos

  let get_bit r =
    if r.pos >= total_bits r then failwith "Bitio.Reader: out of bits";
    let byte =
      Char.code (Bytes.unsafe_get r.data (r.first + (r.pos lsr 3)))
    in
    let bit = (byte lsr (r.pos land 7)) land 1 in
    r.pos <- r.pos + 1;
    bit

  external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

  (* Word-at-a-time refill: gather the next [n] bits (LSB-first) without
     consuming them. Bits past the end of the stream read as zero, which
     lets a table-driven Huffman decoder probe a full root-table index
     near the end of the stream and reject truncation only when the
     decoded codeword actually overruns. At most 5 bytes are needed (7
     offset bits + 32 field bits = 39 bits); away from the end of the
     stream one unaligned 64-bit load fetches them all. *)
  let peek_bits r n =
    if n < 0 || n > 32 then invalid_arg "Bitio.Reader.peek_bits";
    let base = r.first + (r.pos lsr 3) in
    let off = r.pos land 7 in
    if (not Sys.big_endian) && base + 8 <= r.limit then
      (Int64.to_int (get64u r.data base) lsr off) land ((1 lsl n) - 1)
    else begin
      let last = min (base + ((off + n + 7) lsr 3)) r.limit - 1 in
      let acc = ref 0 in
      for i = last downto base do
        acc := (!acc lsl 8) lor Char.code (Bytes.unsafe_get r.data i)
      done;
      (!acc lsr off) land ((1 lsl n) - 1)
    end

  let advance_bits r n =
    if n < 0 || r.pos + n > total_bits r then
      failwith "Bitio.Reader: out of bits";
    r.pos <- r.pos + n

  let get_bits r n =
    if n < 0 || n > 56 then invalid_arg "Bitio.Reader.get_bits";
    if n <= 32 && r.pos + n <= total_bits r then begin
      let v = peek_bits r n in
      r.pos <- r.pos + n;
      v
    end
    else begin
      let v = ref 0 in
      for i = 0 to n - 1 do
        v := !v lor (get_bit r lsl i)
      done;
      !v
    end

  (* [count] fields of [width] bits each, several per word-sized read;
     the same values, and the same end position, as [count] calls of
     [get_bits r width] *)
  let get_fields r ~count ~width =
    if width < 1 || width > 16 then invalid_arg "Bitio.Reader.get_fields";
    let out = Array.make count 0 in
    let per = 32 / width in
    let mask = (1 lsl width) - 1 in
    let i = ref 0 in
    while !i < count do
      if count - !i >= per && r.pos + (per * width) <= total_bits r then begin
        let v = ref (get_bits r (per * width)) in
        for k = 0 to per - 1 do
          Array.unsafe_set out (!i + k) (!v land mask);
          v := !v lsr width
        done;
        i := !i + per
      end
      else begin
        out.(!i) <- get_bits r width;
        incr i
      end
    done;
    out

  let get_bits_msb r n =
    if n < 0 || n > 56 then invalid_arg "Bitio.Reader.get_bits_msb";
    let v = ref 0 in
    for _ = 1 to n do
      v := (!v lsl 1) lor get_bit r
    done;
    !v

  let align_byte r =
    let rem = r.pos land 7 in
    if rem > 0 then r.pos <- r.pos + (8 - rem)

  let get_byte r = get_bits r 8

  (* Byte-aligned bulk read: one blit instead of 8n bit extractions.
     Only valid on a byte boundary (stored deflate blocks align first). *)
  let get_string r n =
    if n < 0 then invalid_arg "Bitio.Reader.get_string";
    if r.pos land 7 <> 0 then
      invalid_arg "Bitio.Reader.get_string: reader not byte-aligned";
    let base = r.first + (r.pos lsr 3) in
    if base + n > r.limit then failwith "Bitio.Reader: out of bits";
    let s = Bytes.sub_string r.data base n in
    r.pos <- r.pos + (n * 8);
    s

  let seek_bit r p =
    if p < 0 || p > total_bits r then invalid_arg "Bitio.Reader.seek_bit";
    r.pos <- p
end
