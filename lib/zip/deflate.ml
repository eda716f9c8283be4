(* Length and distance class tables, as in RFC 1951. *)

let length_base =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51; 59;
     67; 83; 99; 115; 131; 163; 195; 227; 258 |]

let length_extra =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4; 4;
     5; 5; 5; 5; 0 |]

let dist_base =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385; 513;
     769; 1025; 1537; 2049; 3073; 4097; 6145; 8193; 12289; 16385; 24577 |]

let dist_extra =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10; 10;
     11; 11; 12; 12; 13; 13 |]

let eob = 256
let litlen_alphabet = 286
let dist_alphabet = 30

let length_class len =
  let rec go i =
    if i = Array.length length_base - 1 then i
    else if len < length_base.(i + 1) then i
    else go (i + 1)
  in
  if len < 3 || len > 258 then invalid_arg "Deflate.length_class";
  go 0

let dist_class d =
  let rec go i =
    if i = Array.length dist_base - 1 then i
    else if d < dist_base.(i + 1) then i
    else go (i + 1)
  in
  if d < 1 || d > 32768 then invalid_arg "Deflate.dist_class";
  go 0

(* A 1-bit block type follows the 32-bit length header: 0 = dynamic
   Huffman (the original layout after that bit), 1 = stored. A stored
   block byte-aligns and copies the input verbatim, so output is capped
   at orig_len + 5 bytes and compression can never expand pathological
   input (RFC 1951's escape hatch, §3.2.4). The encoder picks stored
   only when the caller supplies [source] and it is strictly smaller. *)
let stored_overhead = 5

let encode_stored ~orig_len source =
  let w = Support.Bitio.Writer.create ~capacity:(orig_len + 8) () in
  Support.Bitio.Writer.put_bits w orig_len 32;
  Support.Bitio.Writer.put_bit w 1;
  Support.Bitio.Writer.align_byte w;
  Support.Bitio.Writer.put_string w source;
  Bytes.to_string (Support.Bitio.Writer.contents w)

(* ---- packed code-length header ----

   The raw header spends 16 bits of count plus 5 bits per symbol on
   each code-length table — ~185 bytes per block, which on the smallest
   corpus points exceeds the entire entropy-coded body and pushes the
   encoder into the stored-block fallback. RFC 1951 §3.2.7 solves this
   by compressing the code lengths themselves: trim trailing zeros,
   run-length-encode the lit+dist length sequence into a 19-symbol
   alphabet (0-15 literal, 16 = repeat previous 3-6 times, 17/18 = zero
   runs), and Huffman-code that. We do the same, minus the HCLEN
   permutation-trim (the 19 code-length-code lengths are sent flat at
   4 bits each — 9.5 bytes, not worth the extra machinery).

   The packed form is signalled in-band: the top bit of the 16-bit
   lit-table count. Legacy streams always carry a count <= 286, so the
   flag bit is never set in them and plain [compress] output — which is
   golden-pinned byte-for-byte — keeps the raw layout; only the
   bit-optimal path opts in, and one decoder reads both. *)

let packed_flag = 0x8000

let trim_code (code : Huffman.code) =
  let lengths = code.Huffman.lengths in
  let n = ref (Array.length lengths) in
  while !n > 0 && lengths.(!n - 1) = 0 do decr n done;
  { Huffman.lengths = Array.sub lengths 0 !n }

(* the RFC's transmission order for code-length-code lengths; kept for
   familiarity even though we always send all 19 *)
let clc_order =
  [| 16; 17; 18; 0; 8; 7; 9; 6; 10; 5; 11; 4; 12; 3; 13; 2; 14; 1; 15 |]

(* (symbol, extra-bits value, extra-bits width) per RFC 1951 §3.2.7 *)
let rle_lengths lengths =
  let out = ref [] in
  let emit sym extra bits = out := (sym, extra, bits) :: !out in
  let n = Array.length lengths in
  let i = ref 0 in
  while !i < n do
    let v = lengths.(!i) in
    let j = ref !i in
    while !j < n && lengths.(!j) = v do incr j done;
    let run = !j - !i in
    if v = 0 then begin
      let r = ref run in
      while !r >= 11 do
        let take = min !r 138 in
        emit 18 (take - 11) 7;
        r := !r - take
      done;
      if !r >= 3 then begin
        emit 17 (!r - 3) 3;
        r := 0
      end;
      while !r > 0 do emit 0 0 0; decr r done
    end
    else begin
      emit v 0 0;
      let r = ref (run - 1) in
      while !r >= 3 do
        let take = min !r 6 in
        emit 16 (take - 3) 2;
        r := !r - take
      done;
      while !r > 0 do emit v 0 0; decr r done
    end;
    i := !j
  done;
  List.rev !out

let write_packed_codes w (lit : Huffman.code) (dist : Huffman.code) =
  let nlit = Array.length lit.Huffman.lengths in
  let ndist = Array.length dist.Huffman.lengths in
  Support.Bitio.Writer.put_bits w (packed_flag lor nlit) 16;
  Support.Bitio.Writer.put_bits w ndist 5;
  let toks =
    rle_lengths (Array.append lit.Huffman.lengths dist.Huffman.lengths)
  in
  let freq = Array.make 19 0 in
  List.iter (fun (s, _, _) -> freq.(s) <- freq.(s) + 1) toks;
  let clc = Huffman.lengths_of_freqs freq in
  Array.iter
    (fun s -> Support.Bitio.Writer.put_bits w clc.Huffman.lengths.(s) 4)
    clc_order;
  let e = Huffman.make_encoder clc in
  List.iter
    (fun (s, extra, bits) ->
      Huffman.encode_symbol e w s;
      if bits > 0 then Support.Bitio.Writer.put_bits w extra bits)
    toks

let encode_tokens ?source ?(packed = false) ~orig_len tokens =
  (* frequency counts *)
  let lit_freq = Array.make litlen_alphabet 0 in
  let dist_freq = Array.make dist_alphabet 0 in
  List.iter
    (fun t ->
      match t with
      | Lz77.Literal b -> lit_freq.(b) <- lit_freq.(b) + 1
      | Lz77.Match { length; dist } ->
        let lc = 257 + length_class length in
        lit_freq.(lc) <- lit_freq.(lc) + 1;
        let dc = dist_class dist in
        dist_freq.(dc) <- dist_freq.(dc) + 1)
    tokens;
  lit_freq.(eob) <- 1;
  let lit_code = Huffman.lengths_of_freqs lit_freq in
  let dist_code = Huffman.lengths_of_freqs dist_freq in
  let lit_code = if packed then trim_code lit_code else lit_code in
  let dist_code = if packed then trim_code dist_code else dist_code in
  let w = Support.Bitio.Writer.create ~capacity:(orig_len / 2) () in
  Support.Bitio.Writer.put_bits w orig_len 32;
  Support.Bitio.Writer.put_bit w 0;
  if packed then write_packed_codes w lit_code dist_code
  else begin
    Huffman.write_lengths w lit_code;
    Huffman.write_lengths w dist_code
  end;
  let le = Huffman.make_encoder lit_code in
  let de = Huffman.make_encoder dist_code in
  List.iter
    (fun t ->
      match t with
      | Lz77.Literal b -> Huffman.encode_symbol le w b
      | Lz77.Match { length; dist } ->
        let lc = length_class length in
        Huffman.encode_symbol le w (257 + lc);
        Support.Bitio.Writer.put_bits w (length - length_base.(lc))
          length_extra.(lc);
        let dc = dist_class dist in
        Huffman.encode_symbol de w dc;
        Support.Bitio.Writer.put_bits w (dist - dist_base.(dc)) dist_extra.(dc))
    tokens;
  Huffman.encode_symbol le w eob;
  let huff = Bytes.to_string (Support.Bitio.Writer.contents w) in
  match source with
  | Some s ->
    if String.length s <> orig_len then
      invalid_arg "Deflate.encode_tokens: source length <> orig_len";
    if orig_len + stored_overhead < String.length huff then
      encode_stored ~orig_len s
    else huff
  | None -> huff

let compress ?(dict = "") s =
  encode_tokens ~source:s ~orig_len:(String.length s) (Lz77.tokenize ~dict s)

(* ---- bit-optimal parsing ----

   The DAG parser in {!Lz77} needs the actual downstream codeword
   costs: what this block format charges is the Huffman length of the
   literal/length symbol plus extra bits, and the Huffman length of the
   distance class plus extra bits. Those lengths depend on the token
   frequencies, which depend on the parse — so we iterate: cost the
   edges from the previous parse's code, re-solve, and repeat. Two
   rounds recover almost all of the gain (the fixed point moves little
   after that). *)

(* A symbol the seed parse never used still needs a price so the DAG
   can introduce it: charge one bit more than the deepest code in use,
   as if it had been a rare leaf. *)
let symbol_cost (code : Huffman.code) =
  let deepest = Array.fold_left max 0 code.Huffman.lengths in
  let fallback = min 15 (deepest + 1) in
  fun sym ->
    let l = code.Huffman.lengths.(sym) in
    if l > 0 then l else fallback

let cost_model_of_tokens tokens =
  let lit_freq = Array.make litlen_alphabet 0 in
  let dist_freq = Array.make dist_alphabet 0 in
  List.iter
    (fun t ->
      match t with
      | Lz77.Literal b -> lit_freq.(b) <- lit_freq.(b) + 1
      | Lz77.Match { length; dist } ->
        let lc = 257 + length_class length in
        lit_freq.(lc) <- lit_freq.(lc) + 1;
        let dc = dist_class dist in
        dist_freq.(dc) <- dist_freq.(dc) + 1)
    tokens;
  lit_freq.(eob) <- 1;
  let lit_cost = symbol_cost (Huffman.lengths_of_freqs lit_freq) in
  let dist_cost = symbol_cost (Huffman.lengths_of_freqs dist_freq) in
  let sc = Lz77.cost_scale in
  {
    Lz77.literal_cost = (fun b -> sc * lit_cost b);
    match_cost =
      (fun ~length ~dist ->
        let lc = length_class length in
        let dc = dist_class dist in
        sc
        * (lit_cost (257 + lc) + length_extra.(lc) + dist_cost dc
         + dist_extra.(dc)));
  }

let tokenize_opt ?(iterations = 2) ?seed s =
  let seed = match seed with Some t -> t | None -> Lz77.tokenize s in
  let rec go tokens k =
    if k = 0 then tokens
    else
      go
        (Lz77.tokenize ~strategy:(Lz77.Optimal (cost_model_of_tokens tokens)) s)
        (k - 1)
  in
  go seed (max 1 iterations)

(* The optimal parse minimizes bits under an estimated code, but the
   emitted block rebuilds its Huffman code from the chosen tokens, so
   the estimate can occasionally lose to the lazy parse it started
   from; encoding both and keeping the smaller makes [compress_opt]
   never worse than [compress] (and the stored-block fallback inside
   [encode_tokens] still bounds it by input + 5 bytes). *)
let compress_opt s =
  let orig_len = String.length s in
  let seed = Lz77.tokenize s in
  let opt = tokenize_opt ~seed s in
  let a = encode_tokens ~source:s ~packed:true ~orig_len seed in
  let b = encode_tokens ~source:s ~packed:true ~orig_len opt in
  if String.length b < String.length a then b else a

let default_max_output = 1 lsl 26

let decompress_sub_exn ?(max_output = default_max_output) ?(dict = "") z ~pos
    ~len =
  let dlen = String.length dict in
  let r = Support.Bitio.Reader.of_substring z ~pos ~len in
  let fail kind msg =
    Support.Decode_error.fail ~decoder:"deflate" ~kind
      ~pos:(Support.Bitio.Reader.bit_position r / 8)
      msg
  in
  if Support.Bitio.Reader.bits_remaining r < 32 then
    fail Support.Decode_error.Truncated "missing length header";
  let orig_len = Support.Bitio.Reader.get_bits r 32 in
  if orig_len > max_output then
    fail Support.Decode_error.Limit
      (Printf.sprintf "declared length %d exceeds cap %d" orig_len max_output);
  if Support.Bitio.Reader.bits_remaining r < 1 then
    fail Support.Decode_error.Truncated "missing block-type bit";
  let block_type = Support.Bitio.Reader.get_bit r in
  if block_type = 1 then begin
    Support.Bitio.Reader.align_byte r;
    if Support.Bitio.Reader.bits_remaining r < orig_len * 8 then
      fail Support.Decode_error.Truncated
        (Printf.sprintf "stored block of %d bytes exceeds remaining input"
           orig_len);
    Support.Bitio.Reader.get_string r orig_len
  end
  else begin
  if Support.Bitio.Reader.bits_remaining r < 16 then
    fail Support.Decode_error.Truncated "missing code-length tables";
  let first = Support.Bitio.Reader.get_bits r 16 in
  let lit_code, dist_code =
    if first land packed_flag = 0 then begin
      (* raw layout: [first] is the lit-table size, 5 bits per entry,
         then the dist table in {!Huffman.read_lengths}' own framing *)
      if first * 5 > Support.Bitio.Reader.bits_remaining r then
        fail Support.Decode_error.Truncated
          (Printf.sprintf "length table of %d entries exceeds remaining input"
             first);
      let lit =
        { Huffman.lengths =
            Support.Bitio.Reader.get_fields r ~count:first ~width:5 }
      in
      (lit, Huffman.read_lengths r)
    end
    else begin
      let nlit = first land lnot packed_flag in
      if nlit > litlen_alphabet then
        fail Support.Decode_error.Bad_value
          (Printf.sprintf "packed lit table of %d entries" nlit);
      if Support.Bitio.Reader.bits_remaining r < 5 + (19 * 4) then
        fail Support.Decode_error.Truncated "missing packed code-length code";
      let ndist = Support.Bitio.Reader.get_bits r 5 in
      if ndist > dist_alphabet then
        fail Support.Decode_error.Bad_value
          (Printf.sprintf "packed dist table of %d entries" ndist);
      let cl = Array.make 19 0 in
      Array.iter
        (fun s -> cl.(s) <- Support.Bitio.Reader.get_bits r 4)
        clc_order;
      let cd = Huffman.make_decoder { Huffman.lengths = cl } in
      let total = nlit + ndist in
      let seq = Array.make (max total 1) 0 in
      let i = ref 0 in
      while !i < total do
        let s = Huffman.decode_symbol cd r in
        if s <= 15 then begin
          seq.(!i) <- s;
          incr i
        end
        else if s = 16 then begin
          if !i = 0 then
            fail Support.Decode_error.Bad_value
              "length repeat with no previous length";
          let cnt = 3 + Support.Bitio.Reader.get_bits r 2 in
          if !i + cnt > total then
            fail Support.Decode_error.Inconsistent
              "length run overflows the tables";
          let v = seq.(!i - 1) in
          for _ = 1 to cnt do
            seq.(!i) <- v;
            incr i
          done
        end
        else begin
          let cnt =
            if s = 17 then 3 + Support.Bitio.Reader.get_bits r 3
            else 11 + Support.Bitio.Reader.get_bits r 7
          in
          if !i + cnt > total then
            fail Support.Decode_error.Inconsistent
              "zero run overflows the tables";
          i := !i + cnt (* seq is zero-initialized *)
        end
      done;
      ({ Huffman.lengths = Array.sub seq 0 nlit },
       { Huffman.lengths = Array.sub seq nlit ndist })
    end
  in
  let ld = Huffman.make_decoder lit_code in
  let dd =
    (* a stream with no matches has an empty distance code *)
    if Array.exists (fun l -> l > 0) dist_code.Huffman.lengths then
      Some (Huffman.make_decoder dist_code)
    else None
  in
  (* grow towards orig_len rather than trusting it up front; the primed
     dictionary sits below position 0 of the logical output, so the
     distance floor naturally extends back into it. [out] is grown by
     doubling, capped at the declared total, and any symbol that would
     overrun the declared length fails before it is written — the same
     check, at the same input position, as testing after the write. *)
  let total = dlen + orig_len in
  let out = ref (Bytes.create (min total (dlen + 65536))) in
  Bytes.blit_string dict 0 !out 0 dlen;
  let len = ref dlen in
  let overrun () =
    fail Support.Decode_error.Inconsistent "output exceeds declared length"
  in
  let reserve n =
    if !len + n > total then overrun ();
    if !len + n > Bytes.length !out then begin
      let cap = min total (max (!len + n) (2 * Bytes.length !out)) in
      let nb = Bytes.create cap in
      Bytes.blit !out 0 nb 0 !len;
      out := nb
    end
  in
  let finished = ref false in
  while not !finished do
    let sym = Huffman.decode_symbol ld r in
    if sym = eob then finished := true
    else if sym < 256 then begin
      (* below the buffer's end is below the declared total too *)
      if !len >= Bytes.length !out then reserve 1;
      Bytes.unsafe_set !out !len (Char.unsafe_chr sym);
      incr len
    end
    else begin
      let lc = sym - 257 in
      if lc >= Array.length length_base then
        fail Support.Decode_error.Bad_value
          (Printf.sprintf "length symbol %d out of range" sym);
      let length =
        length_base.(lc) + Support.Bitio.Reader.get_bits r length_extra.(lc)
      in
      let dd =
        match dd with
        | Some d -> d
        | None ->
          fail Support.Decode_error.Inconsistent
            "match with empty distance code"
      in
      let dc = Huffman.decode_symbol dd r in
      if dc >= Array.length dist_base then
        fail Support.Decode_error.Bad_value
          (Printf.sprintf "distance class %d out of range" dc);
      let dist =
        dist_base.(dc) + Support.Bitio.Reader.get_bits r dist_extra.(dc)
      in
      let start = !len - dist in
      if start < 0 then
        fail Support.Decode_error.Bad_value "distance before start of output";
      reserve length;
      let b = !out in
      if dist >= length then Bytes.blit b start b !len length
      else
        (* overlapping copy: each byte may read one written by this
           same match, so go front to back *)
        for k = 0 to length - 1 do
          Bytes.unsafe_set b (!len + k) (Bytes.unsafe_get b (start + k))
        done;
      len := !len + length
    end
  done;
  if !len <> total then
    fail Support.Decode_error.Inconsistent "output shorter than declared length";
  if dlen = 0 && Bytes.length !out = total then Bytes.unsafe_to_string !out
  else Bytes.sub_string !out dlen orig_len
  end

let decompress_exn ?max_output ?dict z =
  decompress_sub_exn ?max_output ?dict z ~pos:0 ~len:(String.length z)

let decompress ?max_output ?dict z =
  Support.Decode_error.guard ~decoder:"deflate" (fun () ->
      decompress_exn ?max_output ?dict z)

let compressed_size s = String.length (compress s)
