let magic = "WIR1"

type final_stage =
  | Deflate
  | Arith of int
  | Lz_arith
  | Shared_deflate of string
      (* deflate primed with a pre-agreed dictionary; the bytes are the
         context, only a crc of them travels on the wire *)

let wfail r kind msg = Support.Frame.fail r kind msg

let ty_code = function
  | Ir.Op.I -> 0
  | Ir.Op.C -> 1
  | Ir.Op.S -> 2
  | Ir.Op.P -> 3
  | Ir.Op.V -> 4

let ty_of_code r = function
  | 0 -> Ir.Op.I
  | 1 -> Ir.Op.C
  | 2 -> Ir.Op.S
  | 3 -> Ir.Op.P
  | 4 -> Ir.Op.V
  | c -> wfail r Support.Decode_error.Bad_value (Printf.sprintf "bad type code %d" c)

(* Literal-class key used when streams are split; a single shared key
   otherwise. *)
let class_key ~split cls =
  if split then Ir.Op.lit_class_name cls else "ALL"

(* ---- stage 1: patternize ----

   Split every statement into a shape (spat) and its literal operands,
   the operands fanning out into per-class streams (§3 step 2). The
   result carries everything the bundle writer needs, so the two stages
   can be timed and sized independently by the codec layer. *)

type patternized = {
  prog : Ir.Tree.program;
  use_mtf : bool;
  split : bool;
  pattern_seq : Ir.Pattern.spat list;           (* statement order *)
  lit_streams : (string * Ir.Pattern.lit list) list;  (* first-use order *)
  symbols : int;  (* patterns + literals: the stage's output "bytes" *)
}

type streams = {
  mutable pattern_seq : Ir.Pattern.spat list;  (* reversed *)
  lit_seqs : (string, Ir.Pattern.lit list ref) Hashtbl.t;  (* reversed *)
  mutable lit_keys : string list;  (* in first-use order, reversed *)
}

let push_lit st key v =
  (match Hashtbl.find_opt st.lit_seqs key with
  | Some r -> r := v :: !r
  | None ->
    Hashtbl.add st.lit_seqs key (ref [ v ]);
    st.lit_keys <- key :: st.lit_keys)

let patternize ?(use_mtf = true) ?(split_streams = true)
    (p : Ir.Tree.program) : patternized =
  let st =
    { pattern_seq = []; lit_seqs = Hashtbl.create 16; lit_keys = [] }
  in
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          let sp, lits = Ir.Pattern.of_stmt s in
          st.pattern_seq <- sp :: st.pattern_seq;
          List.iter
            (fun (cls, v) -> push_lit st (class_key ~split:split_streams cls) v)
            lits)
        f.Ir.Tree.body)
    p.Ir.Tree.funcs;
  let pattern_seq = List.rev st.pattern_seq in
  let lit_streams =
    List.rev_map
      (fun key -> (key, List.rev !(Hashtbl.find st.lit_seqs key)))
      st.lit_keys
  in
  let symbols =
    List.fold_left
      (fun a (_, l) -> a + List.length l)
      (List.length pattern_seq) lit_streams
  in
  { prog = p; use_mtf; split = split_streams; pattern_seq; lit_streams;
    symbols }

let symbols pz = pz.symbols

(* ---- stage 2: MTF + Huffman into the bundle ---- *)

(* Stream indices from the dense first-occurrence ids ([Mtf.intern_hashed]):
   MTF-coded normally, or — the ablation — the plain first-occurrence
   position (id + 1; 0 still introduces the next novel symbol). Ids are
   numbered by first occurrence, so "seen before" is exactly
   [id < distinct-so-far]. *)
let indices_of_ids ~use_mtf ids =
  if use_mtf then Zip.Mtf.encode_ids ids
  else begin
    let n = Array.length ids in
    let out = Array.make n 0 in
    let seen = ref 0 in
    for i = 0 to n - 1 do
      let id = ids.(i) in
      if id < !seen then out.(i) <- id + 1 else incr seen
    done;
    out
  end

(* A decoded stream as ids into its novel table: the inverse MTF — or,
   in the ablation, of the first-occurrence indices, whose table is
   always a prefix of the novel list (entry i - 1 of it is the i-th
   novel value introduced). Errors match the list decoders'
   ({!Zip.Mtf.decode_exn}'s, and the ablation's own), element for
   element. *)
let inverse_mtf_or_first ~use_mtf (indices : int array) ~n_novel : int array =
  if use_mtf then Zip.Mtf.decode_ids ~max_novel:n_novel indices
  else begin
    let fail ~pos msg =
      Support.Decode_error.fail ~decoder:"wire"
        ~kind:Support.Decode_error.Bad_value ~pos msg
    in
    let seen = ref 0 in
    Array.mapi
      (fun pos i ->
        if i = 0 then begin
          if !seen >= n_novel then fail ~pos "novel list exhausted";
          incr seen;
          !seen - 1
        end
        else if i < 0 || i > !seen then
          fail ~pos (Printf.sprintf "index %d exceeds table of %d" i !seen)
        else i - 1)
      indices
  end

let encode_indices buf indices =
  let alphabet = Array.fold_left max 0 indices + 1 in
  let bytes = Zip.Huffman.encode_all_arr indices ~alphabet in
  Support.Frame.put_bytes buf bytes

(* the stream's Huffman bytes are read where they sit in the bundle *)
let decode_indices r =
  let pos, len = Support.Frame.field ~what:"bundle" r in
  Zip.Huffman.decode_sub_exn (Support.Frame.src r) ~pos ~len

(* Each stream (the pattern stream, each literal stream) is encoded
   into its own byte segment by a pure function of [pz] alone, so the
   segments can be produced on a domain pool; concatenating them in the
   fixed wire order keeps the output byte-identical to a sequential
   run. *)
let pattern_segment (pz : patternized) : string =
  let use_mtf = pz.use_mtf in
  let buf = Buffer.create 1024 in
  let ids, novel =
    Zip.Mtf.intern_hashed ~hash:Ir.Pattern.hash ~eq:Ir.Pattern.equal
      pz.pattern_seq
  in
  encode_indices buf (indices_of_ids ~use_mtf ids);
  Support.Util.uleb128 buf (List.length novel);
  List.iter
    (fun sp -> Support.Frame.put_str buf (Ir.Pattern.encode sp))
    novel;
  Buffer.contents buf

let lit_segment ~use_mtf (key, seq) : string =
  let buf = Buffer.create 256 in
  Support.Frame.put_str buf key;
  let ids, novel = Zip.Mtf.intern_hashed ~hash:Hashtbl.hash ~eq:( = ) seq in
  encode_indices buf (indices_of_ids ~use_mtf ids);
  Support.Util.uleb128 buf (List.length novel);
  List.iter
    (fun lit ->
      match lit with
      | Ir.Pattern.Lint v ->
        Buffer.add_char buf '\000';
        Support.Util.sleb_of_int buf v
      | Ir.Pattern.Lsym s ->
        Buffer.add_char buf '\001';
        Support.Frame.put_str buf s)
    novel;
  Buffer.contents buf

let bundle_of_patternized ?pool (pz : patternized) : string =
  let p = pz.prog in
  let use_mtf = pz.use_mtf in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (if use_mtf then '\001' else '\000');
  Buffer.add_char buf (if pz.split then '\001' else '\000');
  (* globals *)
  Support.Util.uleb128 buf (List.length p.Ir.Tree.globals);
  List.iter
    (fun g ->
      Support.Frame.put_str buf g.Ir.Tree.gname;
      Support.Util.uleb128 buf g.Ir.Tree.gsize;
      match g.Ir.Tree.ginit with
      | None -> Support.Util.uleb128 buf 0
      | Some bytes ->
        Support.Util.uleb128 buf (List.length bytes + 1);
        List.iter (fun b -> Buffer.add_char buf (Char.chr (b land 0xff))) bytes)
    p.Ir.Tree.globals;
  (* function headers *)
  Support.Util.uleb128 buf (List.length p.Ir.Tree.funcs);
  List.iter
    (fun f ->
      Support.Frame.put_str buf f.Ir.Tree.fname;
      Support.Util.uleb128 buf (List.length f.Ir.Tree.formals);
      List.iter
        (fun (n, ty) ->
          Support.Frame.put_str buf n;
          Buffer.add_char buf (Char.chr (ty_code ty)))
        f.Ir.Tree.formals;
      Support.Util.uleb128 buf f.Ir.Tree.frame_size;
      Support.Util.uleb128 buf (List.length f.Ir.Tree.body))
    p.Ir.Tree.funcs;
  (* pattern stream, then literal streams in first-use order; the
     segments are independent, so fan them out when a pool is given
     and join in input order (byte-identical either way) *)
  let jobs =
    (fun () -> pattern_segment pz)
    :: List.map (fun s () -> lit_segment ~use_mtf s) pz.lit_streams
  in
  let segments =
    match pool with
    | Some pool when List.length jobs > 1 -> Support.Pool.run_list pool jobs
    | _ -> List.map (fun f -> f ()) jobs
  in
  (match segments with
  | pat :: lits ->
    Buffer.add_string buf pat;
    Support.Util.uleb128 buf (List.length pz.lit_streams);
    List.iter (Buffer.add_string buf) lits
  | [] -> assert false);
  Buffer.contents buf

(* ---- stage 3: the final entropy stage, tagged ---- *)

let dict_crc_be dict =
  let c = Support.Util.crc32 dict in
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((c lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((c lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((c lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (c land 0xff));
  Bytes.to_string b

let apply_final_stage stage bundle =
  match stage with
  | Deflate -> "D" ^ Zip.Deflate.compress bundle
  | Arith order ->
    if order < 0 || order > 3 then invalid_arg "Wire.compress: bad order";
    Printf.sprintf "A%d" order
    ^ Zip.Range_coder.compress_order_n ~order bundle
  | Lz_arith -> "L" ^ Zip.Lza.compress bundle
  | Shared_deflate dict ->
    (* seal the dictionary pairing in-band: 4 crc bytes after the tag,
       so decoding against the wrong/absent dictionary is a typed
       error, never silent garbage *)
    "S" ^ dict_crc_be dict ^ Zip.Deflate.compress ~dict bundle

(* body (everything behind the CRC seal) -> bundle. [dict] is the
   pre-agreed priming dictionary for the ['S'] stage; the other stages
   ignore it. *)
let unwrap_final_stage_at_exn ?dict z ~off =
  let fail0 kind msg =
    Support.Decode_error.fail ~decoder:"wire" ~kind ~pos:0 msg
  in
  let n = String.length z - off in
  (* the body after its [k]-byte stage header *)
  let rest k = String.sub z (off + k) (n - k) in
  if n < 1 then
    fail0 Support.Decode_error.Truncated "missing final-stage tag";
  match z.[off] with
  | 'D' -> Zip.Deflate.decompress_sub_exn z ~pos:(off + 1) ~len:(n - 1)
  | 'A' ->
    if n < 2 then
      fail0 Support.Decode_error.Truncated "truncated header";
    let order = Char.code z.[off + 1] - Char.code '0' in
    if order < 0 || order > 3 then
      fail0 Support.Decode_error.Bad_value "bad arith order";
    Zip.Range_coder.decompress_order_n_exn ~order (rest 2)
  | 'L' -> Zip.Lza.decompress_exn (rest 1)
  | 'S' -> (
    if n < 5 then
      fail0 Support.Decode_error.Truncated "truncated shared-stage header";
    (* [None] means no dictionary was supplied; [Some ""] is a real
       (empty) dictionary and must still pass the CRC pairing check *)
    match dict with
    | None ->
      fail0 Support.Decode_error.Bad_value
        "shared final stage requires a dictionary context"
    | Some dict ->
      if String.sub z (off + 1) 4 <> dict_crc_be dict then
        fail0 Support.Decode_error.Inconsistent
          "shared-stage dictionary crc mismatch";
      Zip.Deflate.decompress_sub_exn ~dict z ~pos:(off + 5) ~len:(n - 5))
  | _ -> fail0 Support.Decode_error.Bad_value "unknown final stage"

let unwrap_final_stage_exn ?dict body =
  unwrap_final_stage_at_exn ?dict body ~off:0

(* ---- the whole pipeline ---- *)

let compress ?pool ?use_mtf ?split_streams ?(final_stage = Deflate)
    (p : Ir.Tree.program) =
  let pz = patternize ?use_mtf ?split_streams p in
  let bundle = bundle_of_patternized ?pool pz in
  (* integrity frame: 4-byte big-endian CRC-32 of the body, so a
     damaged or truncated image is rejected before any parsing *)
  Support.Frame.seal (apply_final_stage final_stage bundle)

(* ---- decompression ---- *)

(* Literal classes as dense indices, so the reassembly loop resolves a
   class's stream once per bundle rather than building and hashing its
   string key per literal. *)
let class_index = function
  | Ir.Op.Lc_addrl Ir.Op.W8 -> 0
  | Ir.Op.Lc_addrl Ir.Op.W16 -> 1
  | Ir.Op.Lc_addrl Ir.Op.W32 -> 2
  | Ir.Op.Lc_addrf Ir.Op.W8 -> 3
  | Ir.Op.Lc_addrf Ir.Op.W16 -> 4
  | Ir.Op.Lc_addrf Ir.Op.W32 -> 5
  | Ir.Op.Lc_addrg -> 6
  | Ir.Op.Lc_cnst Ir.Op.W8 -> 7
  | Ir.Op.Lc_cnst Ir.Op.W16 -> 8
  | Ir.Op.Lc_cnst Ir.Op.W32 -> 9
  | Ir.Op.Lc_label -> 10

let n_classes = 11

let program_of_bundle_exn bundle : Ir.Tree.program =
  let r = Support.Frame.reader ~decoder:"wire" bundle in
  Support.Frame.expect_magic r magic;
  let use_mtf = Support.Frame.raw r ~what:"bundle" 1 = "\001" in
  let split_streams = Support.Frame.raw r ~what:"bundle" 1 = "\001" in
  let get_uleb () = Support.Frame.u r in
  let get_str () = Support.Frame.str ~what:"bundle" r in
  let get_byte () = Support.Frame.byte r ~what:"bundle" () in
  let check_count n what = Support.Frame.check_count r n what in
  (* globals *)
  let nglob = get_uleb () in
  check_count nglob "global";
  let globals =
    List.init nglob (fun _ ->
        let gname = get_str () in
        let gsize = get_uleb () in
        let initlen = get_uleb () in
        if initlen > 0 then check_count (initlen - 1) "global initializer";
        let ginit =
          if initlen = 0 then None
          else
            Some (List.init (initlen - 1) (fun _ -> Char.code (get_byte ())))
        in
        { Ir.Tree.gname; gsize; ginit })
  in
  (* function headers *)
  let nfun = get_uleb () in
  check_count nfun "function";
  let headers =
    Array.init nfun (fun _ ->
        let fname = get_str () in
        let nformals = get_uleb () in
        check_count nformals "formal";
        let formals =
          List.init nformals (fun _ ->
              let n = get_str () in
              let ty = ty_of_code r (Char.code (get_byte ())) in
              (n, ty))
        in
        let frame_size = get_uleb () in
        let nstmts = get_uleb () in
        (fname, formals, frame_size, nstmts))
  in
  (* pattern stream; novel patterns decode in place *)
  let pat_indices = decode_indices r in
  let n_novel = get_uleb () in
  check_count n_novel "novel pattern";
  let novel_pats =
    Array.init n_novel (fun _ ->
        let p, n = Support.Frame.field ~what:"bundle" r in
        let pos = ref p in
        let sp = Ir.Pattern.decode ~stop:(p + n) bundle pos in
        if !pos <> p + n then
          wfail r Support.Decode_error.Inconsistent "trailing pattern bytes";
        sp)
  in
  let pattern_ids =
    inverse_mtf_or_first ~use_mtf pat_indices ~n_novel:(Array.length novel_pats)
  in
  (* literal streams; a repeated key shadows the earlier stream *)
  let nstreams = get_uleb () in
  check_count nstreams "literal stream";
  let by_key : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let streams =
    Array.init nstreams (fun k ->
        let key = get_str () in
        let indices = decode_indices r in
        let n_novel = get_uleb () in
        check_count n_novel "novel literal";
        let novel =
          Array.init n_novel (fun _ ->
              match get_byte () with
              | '\000' -> Ir.Pattern.Lint (Support.Frame.sleb r)
              | '\001' -> Ir.Pattern.Lsym (get_str ())
              | _ -> wfail r Support.Decode_error.Bad_value "bad literal tag")
        in
        let ids =
          inverse_mtf_or_first ~use_mtf indices ~n_novel:(Array.length novel)
        in
        Hashtbl.replace by_key key k;
        (ids, novel))
  in
  (* each class's stream, resolved on its first literal *)
  let unresolved = -2 and missing = -1 in
  let stream_of = Array.make n_classes unresolved in
  let cursor = Array.make nstreams 0 in
  let next_lit cls =
    let c = class_index cls in
    if stream_of.(c) = unresolved then
      stream_of.(c) <-
        (match Hashtbl.find_opt by_key (class_key ~split:split_streams cls) with
        | Some k -> k
        | None -> missing);
    let k = stream_of.(c) in
    if k = missing then
      wfail r Support.Decode_error.Inconsistent
        ("missing literal stream: " ^ class_key ~split:split_streams cls);
    let ids, novel = streams.(k) in
    let i = cursor.(k) in
    if i >= Array.length ids then
      wfail r Support.Decode_error.Inconsistent
        ("literal stream exhausted: " ^ class_key ~split:split_streams cls);
    cursor.(k) <- i + 1;
    novel.(ids.(i))
  in
  (* reassemble functions *)
  let next_pattern = ref 0 in
  let funcs =
    Array.to_list
      (Array.map
         (fun (fname, formals, frame_size, nstmts) ->
           let body =
             List.init nstmts (fun _ ->
                 let i = !next_pattern in
                 if i >= Array.length pattern_ids then
                   wfail r Support.Decode_error.Inconsistent
                     "pattern stream exhausted";
                 next_pattern := i + 1;
                 Ir.Pattern.to_stmt_pull novel_pats.(pattern_ids.(i)) next_lit)
           in
           { Ir.Tree.fname; formals; frame_size; body })
         headers)
  in
  if !next_pattern <> Array.length pattern_ids then
    wfail r Support.Decode_error.Inconsistent "leftover patterns";
  { Ir.Tree.globals; funcs }

let decompress_exn ?dict z =
  let off = Support.Frame.verify ~decoder:"wire" z in
  program_of_bundle_exn (unwrap_final_stage_at_exn ?dict z ~off)

let decompress ?dict z =
  Support.Decode_error.guard ~decoder:"wire" (fun () -> decompress_exn ?dict z)

(* ---- stats ---- *)

type stats = {
  wire_bytes : int;
  bundle_bytes : int;
  pattern_count : int;
  distinct_patterns : int;
  pattern_stream_bytes : int;
  novel_table_bytes : int;
  literal_stream_bytes : (string * int) list;
}

let stats (p : Ir.Tree.program) =
  (* replicate the pipeline, measuring as we go *)
  let pz = patternize p in
  let enc = Zip.Mtf.encode ~eq:Ir.Pattern.equal pz.pattern_seq in
  let pat_stream =
    Zip.Huffman.encode_all enc.Zip.Mtf.indices
      ~alphabet:(List.fold_left max 0 enc.Zip.Mtf.indices + 1)
  in
  let novel_bytes =
    List.fold_left
      (fun a sp -> a + String.length (Ir.Pattern.encode sp) + 1)
      0 enc.Zip.Mtf.novel
  in
  let lit_bytes =
    List.map
      (fun (key, seq) ->
        let enc = Zip.Mtf.encode ~eq:( = ) seq in
        let stream =
          Zip.Huffman.encode_all enc.Zip.Mtf.indices
            ~alphabet:(List.fold_left max 0 enc.Zip.Mtf.indices + 1)
        in
        let novel =
          List.fold_left
            (fun a lit ->
              a
              + match lit with
                | Ir.Pattern.Lint v ->
                  let b = Buffer.create 8 in
                  Support.Util.sleb_of_int b v;
                  1 + Buffer.length b
                | Ir.Pattern.Lsym s -> 2 + String.length s)
            0 enc.Zip.Mtf.novel
        in
        (key, Bytes.length stream + novel))
      pz.lit_streams
  in
  let bundle = bundle_of_patternized pz in
  let z = Support.Frame.seal (apply_final_stage Deflate bundle) in
  {
    wire_bytes = String.length z;
    bundle_bytes = String.length bundle;
    pattern_count = List.length pz.pattern_seq;
    distinct_patterns = List.length enc.Zip.Mtf.novel;
    pattern_stream_bytes = Bytes.length pat_stream;
    novel_table_bytes = novel_bytes;
    literal_stream_bytes = lit_bytes;
  }
