type code = { lengths : int array }

(* --- tree construction ------------------------------------------------ *)

type node =
  | Leaf of int                 (* symbol *)
  | Node of node * node

let build_tree freqs =
  (* min-heap on (freq, tiebreak, node); tiebreak keeps construction
     deterministic across runs. *)
  let cmp (f1, t1, _) (f2, t2, _) =
    if f1 <> f2 then compare f2 f1 else compare t2 t1
  in
  let h = Support.Heap.create ~cmp in
  let tie = ref 0 in
  Array.iteri
    (fun sym f ->
      if f > 0 then begin
        Support.Heap.push h (f, !tie, Leaf sym);
        incr tie
      end)
    freqs;
  if Support.Heap.is_empty h then None
  else begin
    while Support.Heap.length h > 1 do
      let f1, _, n1 = Support.Heap.pop_exn h in
      let f2, _, n2 = Support.Heap.pop_exn h in
      Support.Heap.push h (f1 + f2, !tie, Node (n1, n2));
      incr tie
    done;
    let _, _, root = Support.Heap.pop_exn h in
    Some root
  end

let rec fill_lengths lengths depth = function
  | Leaf sym -> lengths.(sym) <- max 1 depth
  | Node (l, r) ->
    fill_lengths lengths (depth + 1) l;
    fill_lengths lengths (depth + 1) r

let lengths_of_freqs ?(max_len = 15) freqs =
  let n = Array.length freqs in
  let rec attempt freqs =
    let lengths = Array.make n 0 in
    (match build_tree freqs with
    | None -> ()
    | Some root -> fill_lengths lengths 0 root);
    let deepest = Array.fold_left max 0 lengths in
    if deepest <= max_len then { lengths }
    else
      (* Flatten the distribution and retry; converges because all
         frequencies tend to 1, giving a balanced tree of depth
         ceil(log2 n) <= max_len for any realistic alphabet. *)
      attempt (Array.map (fun f -> if f = 0 then 0 else (f + 1) / 2) freqs)
  in
  attempt freqs

(* --- canonical code assignment ---------------------------------------- *)

let canonical_codes { lengths } =
  let n = Array.length lengths in
  let max_len = Array.fold_left max 0 lengths in
  let bl_count = Array.make (max_len + 1) 0 in
  Array.iter (fun l -> if l > 0 then bl_count.(l) <- bl_count.(l) + 1) lengths;
  let next_code = Array.make (max_len + 2) 0 in
  let code = ref 0 in
  for bits = 1 to max_len do
    code := (!code + bl_count.(bits - 1)) lsl 1;
    next_code.(bits) <- !code
  done;
  let codes = Array.make n 0 in
  for sym = 0 to n - 1 do
    let l = lengths.(sym) in
    if l > 0 then begin
      codes.(sym) <- next_code.(l);
      next_code.(l) <- next_code.(l) + 1
    end
  done;
  codes

(* --- encoder / decoder ------------------------------------------------- *)

(* [bit_reverse v n] reverses the low [n] bits of [v]. The bit stream is
   LSB-first within bytes (DEFLATE convention), so writing the reversed
   code LSB-first emits exactly the same bit sequence as writing the
   canonical code MSB-first — one [put_bits] call instead of a loop of
   [put_bit], and the key that lets the decoder index a flat table with
   an LSB-first peek. *)
let bit_reverse v n =
  let r = ref 0 in
  for i = 0 to n - 1 do
    r := (!r lsl 1) lor ((v lsr i) land 1)
  done;
  !r

(* Root-table entries pack (symbol lsl 5) lor length; length >= 1 for
   any real codeword, so 0 marks "longer than the root or invalid" and
   routes to the bit-at-a-time fallback. The table is a byte block of
   32-bit native-endian entries (a symbol of a 16-bit alphabet packs to
   21 bits): the GC never scans it, and a full 2^10-entry table costs a
   memset, where an int array that size is a scanned major-heap
   block. *)
let root_bits_cap = 10

external root_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external root_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let root_get t i = Int32.to_int (root_get32 t (i lsl 2))
let root_set t i v = root_set32 t (i lsl 2) (Int32.of_int v)
let root_create bits = Bytes.make (4 lsl bits) '\000'

(* [rev_root.(v)] reverses all [root_bits_cap] bits of [v]; the reverse
   of a shorter [n]-bit field is that shifted down by the difference *)
let rev_root = Array.init (1 lsl root_bits_cap) (fun v -> bit_reverse v root_bits_cap)

type encoder = {
  enc_lengths : int array;
  enc_codes : int array;
  enc_rev : int array;          (* bit-reversed codes, for LSB-first emit *)
}

type decoder = {
  (* canonical decode tables indexed by length *)
  first_code : int array;       (* smallest code of each length *)
  first_index : int array;      (* index into sorted_syms of that code *)
  counts : int array;           (* number of codes of each length *)
  sorted_syms : int array;      (* symbols sorted by (length, code) *)
  dec_max_len : int;
  root_bits : int;              (* table index width, min(max_len, cap) *)
  root_table : Bytes.t;         (* 2^root_bits packed entries *)
}

let make_encoder c =
  let codes = canonical_codes c in
  let rev = Array.mapi (fun sym cd -> bit_reverse cd c.lengths.(sym)) codes in
  { enc_lengths = c.lengths; enc_codes = codes; enc_rev = rev }

(* Decode tables in one pass over the alphabet. Canonical codes ascend
   with the symbol within one length, so a counting sort by length —
   each symbol dropped into its length's next free slot, in symbol
   order — lays out [sorted_syms] in (length, code) order, and a
   symbol's code is its length's first code plus its rank there. No
   list, no comparison sort, no separate [canonical_codes] pass; the
   tables are equal to {!Reference.make_decoder}'s (test-pinned). *)
let make_decoder { lengths } =
  let n = Array.length lengths in
  let max_len = ref 0 in
  for s = 0 to n - 1 do
    let l = Array.unsafe_get lengths s in
    if l > !max_len then max_len := l
  done;
  let max_len = !max_len in
  let counts = Array.make (max_len + 1) 0 in
  for s = 0 to n - 1 do
    let l = Array.unsafe_get lengths s in
    if l > 0 then counts.(l) <- counts.(l) + 1
  done;
  let first_code = Array.make (max_len + 1) 0 in
  let first_index = Array.make (max_len + 1) 0 in
  let next = Array.make (max_len + 1) 0 in
  let idx = ref 0 in
  let code = ref 0 in
  for l = 1 to max_len do
    code := (!code + if l = 1 then 0 else counts.(l - 1)) lsl 1;
    first_code.(l) <- !code;
    first_index.(l) <- !idx;
    next.(l) <- !idx;
    idx := !idx + counts.(l)
  done;
  let sorted_syms = Array.make !idx 0 in
  for sym = 0 to n - 1 do
    let l = Array.unsafe_get lengths sym in
    if l > 0 then begin
      let k = next.(l) in
      next.(l) <- k + 1;
      sorted_syms.(k) <- sym
    end
  done;
  (* Flat lookup table over the next [root_bits] bits of the stream
     (LSB-first, as peeked). A codeword of length l <= root_bits owns
     every table slot whose low l bits are its reversed code; slots left
     at 0 (longer codewords, or bit patterns outside the code) fall back
     to the canonical bit-at-a-time walk. *)
  let root_bits = min max_len root_bits_cap in
  let root_table = root_create root_bits in
  (* the slot and packed entry of the k-th codeword in (length, code)
     order, which has length [l] *)
  let slot l k =
    let code = (first_code.(l) + (k - first_index.(l))) land ((1 lsl l) - 1) in
    rev_root.(code) lsr (root_bits_cap - l)
  in
  let entry l k = (sorted_syms.(k) lsl 5) lor l in
  let kraft = ref 0 in
  for l = 1 to max_len do
    kraft := !kraft + (counts.(l) lsl (max_len - l))
  done;
  if !kraft <= 1 lsl max_len then
    (* A prefix-free code (complete or not): no two codewords share a
       slot, so build the table width by width — double it (the copy
       repeats every shorter codeword's slots), then drop each
       codeword of the new length into its one slot. *)
    for l = 1 to root_bits do
      let half = 1 lsl (l - 1) in
      Bytes.blit root_table 0 root_table (4 * half) (4 * half);
      for k = first_index.(l) to first_index.(l) + counts.(l) - 1 do
        root_set root_table (slot l k) (entry l k)
      done
    done
  else begin
    (* Over-subscribed (only corrupt input): codewords collide, and a
       slot keeps the last writer in symbol order, as the reference
       construction does. [next] walks each length's ranks again. *)
    Array.blit first_index 0 next 0 (max_len + 1);
    for sym = 0 to n - 1 do
      let l = Array.unsafe_get lengths sym in
      if l > 0 then begin
        let k = next.(l) in
        next.(l) <- k + 1;
        if l <= root_bits then begin
          let rev = slot l k and e = entry l k in
          for j = 0 to (1 lsl (root_bits - l)) - 1 do
            root_set root_table (rev lor (j lsl l)) e
          done
        end
      end
    done
  end;
  { first_code; first_index; counts; sorted_syms; dec_max_len = max_len;
    root_bits; root_table }

(* The original list-sorting construction, kept verbatim as the oracle
   the counting-sort tables are differential-tested against. *)
module Reference = struct
  let make_decoder ({ lengths } as c) =
    let max_len = Array.fold_left max 0 lengths in
    let counts = Array.make (max_len + 1) 0 in
    Array.iter (fun l -> if l > 0 then counts.(l) <- counts.(l) + 1) lengths;
    let codes = canonical_codes c in
    (* sort symbols by (length, code) *)
    let syms =
      Array.to_list lengths
      |> List.mapi (fun s l -> (s, l))
      |> List.filter (fun (_, l) -> l > 0)
      |> List.sort (fun (s1, l1) (s2, l2) ->
             if l1 <> l2 then compare l1 l2 else compare codes.(s1) codes.(s2))
      |> List.map fst
      |> Array.of_list
    in
    let first_code = Array.make (max_len + 1) 0 in
    let first_index = Array.make (max_len + 1) 0 in
    let idx = ref 0 in
    let code = ref 0 in
    for l = 1 to max_len do
      code := (!code + if l = 1 then 0 else counts.(l - 1)) lsl 1;
      (* recompute canonical first code of length l *)
      first_code.(l) <- !code;
      first_index.(l) <- !idx;
      idx := !idx + counts.(l)
    done;
    let root_bits = min max_len root_bits_cap in
    let root_table = root_create root_bits in
    Array.iteri
      (fun sym l ->
        if l > 0 && l <= root_bits then begin
          let rev = bit_reverse codes.(sym) l in
          let fillers = 1 lsl (root_bits - l) in
          for j = 0 to fillers - 1 do
            root_set root_table (rev lor (j lsl l)) ((sym lsl 5) lor l)
          done
        end)
      lengths;
    { first_code; first_index; counts; sorted_syms = syms;
      dec_max_len = max_len; root_bits; root_table }
end

let encode_symbol e w sym =
  let l = e.enc_lengths.(sym) in
  if l = 0 then invalid_arg "Huffman.encode_symbol: symbol has no code";
  Support.Bitio.Writer.put_bits w e.enc_rev.(sym) l

let hfail r kind msg =
  Support.Decode_error.fail ~decoder:"huffman" ~kind
    ~pos:(Support.Bitio.Reader.bit_position r / 8)
    msg

(* Canonical bit-at-a-time decode: the fallback for codewords longer
   than the root table, near-end-of-stream probes, and corrupt input
   (where it owns the exact error positions and messages). *)
let decode_symbol_slow d r =
  let code = ref 0 in
  let len = ref 0 in
  let result = ref (-1) in
  while !result < 0 do
    if Support.Bitio.Reader.bits_remaining r = 0 then
      hfail r Support.Decode_error.Truncated "input ends mid-codeword";
    code := (!code lsl 1) lor Support.Bitio.Reader.get_bit r;
    incr len;
    if !len > d.dec_max_len then
      hfail r Support.Decode_error.Bad_value "no codeword of any valid length";
    let c = d.counts.(!len) in
    if c > 0 && !code - d.first_code.(!len) < c && !code >= d.first_code.(!len)
    then result := d.sorted_syms.(d.first_index.(!len) + (!code - d.first_code.(!len)))
  done;
  !result

let decode_symbol d r =
  (* Peek a full table index (zero-padded past end of input); the entry,
     when present, names the unique codeword that is a prefix of those
     bits. The prefix property makes the fallback safe: if the matched
     length overruns the real input, no shorter codeword could have
     matched either, so the slow path correctly reports truncation. *)
  let idx = Support.Bitio.Reader.peek_bits r d.root_bits in
  let entry = root_get d.root_table idx in
  if entry <> 0 then begin
    let l = entry land 31 in
    if l <= Support.Bitio.Reader.bits_remaining r then begin
      Support.Bitio.Reader.advance_bits r l;
      entry lsr 5
    end
    else decode_symbol_slow d r
  end
  else decode_symbol_slow d r

(* --- length-table serialization ---------------------------------------- *)

let write_lengths w { lengths } =
  let n = Array.length lengths in
  Support.Bitio.Writer.put_bits w n 16;
  Array.iter (fun l -> Support.Bitio.Writer.put_bits w l 5) lengths

let read_lengths r =
  let n = Support.Bitio.Reader.get_bits r 16 in
  if n * 5 > Support.Bitio.Reader.bits_remaining r then
    hfail r Support.Decode_error.Truncated
      (Printf.sprintf "length table of %d entries exceeds remaining input" n);
  let lengths = Support.Bitio.Reader.get_fields r ~count:n ~width:5 in
  { lengths }

let cost_bits { lengths } freqs =
  let total = ref 0 in
  Array.iteri
    (fun sym f -> if f > 0 then total := !total + (f * lengths.(sym)))
    freqs;
  !total

(* --- convenience whole-stream API -------------------------------------- *)

let encode_all_arr syms ~alphabet =
  let freqs = Array.make alphabet 0 in
  Array.iter (fun s -> freqs.(s) <- freqs.(s) + 1) syms;
  let code = lengths_of_freqs freqs in
  let w = Support.Bitio.Writer.create () in
  Support.Bitio.Writer.put_bits w (Array.length syms) 32;
  write_lengths w code;
  let e = make_encoder code in
  Array.iter (fun s -> encode_symbol e w s) syms;
  Support.Bitio.Writer.contents w

let encode_all syms ~alphabet = encode_all_arr (Array.of_list syms) ~alphabet

let decode_reader_exn r =
  if Support.Bitio.Reader.bits_remaining r < 32 then
    hfail r Support.Decode_error.Truncated "missing symbol count";
  let count = Support.Bitio.Reader.get_bits r 32 in
  let code = read_lengths r in
  (* every symbol costs at least one bit, so a count beyond the remaining
     bit budget is corrupt — reject before allocating the result *)
  if count > Support.Bitio.Reader.bits_remaining r then
    hfail r Support.Decode_error.Limit
      (Printf.sprintf "symbol count %d exceeds remaining input" count);
  if count = 0 then [||]
  else begin
    let d = make_decoder code in
    let out = Array.make count 0 in
    for i = 0 to count - 1 do
      out.(i) <- decode_symbol d r
    done;
    out
  end

let decode_all_arr_exn bytes =
  decode_reader_exn (Support.Bitio.Reader.of_bytes bytes)

let decode_sub_exn s ~pos ~len =
  decode_reader_exn (Support.Bitio.Reader.of_substring s ~pos ~len)

let decode_all_exn bytes = Array.to_list (decode_all_arr_exn bytes)

let decode_all bytes =
  Support.Decode_error.guard ~decoder:"huffman" (fun () -> decode_all_exn bytes)
