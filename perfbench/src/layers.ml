(* Per-layer figures of the traced run, and the counters every run
   cross-checks against [Server.report]. *)

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64
let set (t : t) name v = Hashtbl.replace t name v
let get (t : t) name = Option.value ~default:0. (Hashtbl.find_opt t name)
let add (t : t) name v = set t name (get t name +. v)

(* Sum a codec trace into [t] under [prefix.<stage>] (seconds). *)
let add_trace t prefix (tr : Codec.trace) =
  List.iter
    (fun (s : Codec.stage) ->
      add t (prefix ^ "." ^ Loop.sanitize s.Codec.stage) s.Codec.wall_s)
    tr

(* Compression work the store recorded between two reports, by codec:
   calls, seconds, and per-stage seconds. *)
let add_compressions t (d : Server.Stats.report) =
  List.iter
    (fun (r : Server.Stats.repr_report) ->
      if r.Server.Stats.compressions > 0 then begin
        let c = Loop.sanitize (Server.Artifact.name r.Server.Stats.repr) in
        add t ("enc." ^ c ^ ".calls") (float_of_int r.Server.Stats.compressions);
        add t ("enc." ^ c ^ ".s") r.Server.Stats.compress_total_s;
        List.iter
          (fun (s : Server.Stats.stage_report) ->
            add t
              ("enc." ^ c ^ ".stage." ^ Loop.sanitize s.Server.Stats.stage_name)
              s.Server.Stats.wall_s)
          r.Server.Stats.stages
      end)
    d.Server.Stats.by_repr

let compress_s (d : Server.Stats.report) =
  List.fold_left
    (fun a (r : Server.Stats.repr_report) -> a +. r.Server.Stats.compress_total_s)
    0. d.Server.Stats.by_repr


(* Σ stored bytes of [codec] over Σ stored [native] bytes, for the
   given published digests. *)
let size_ratio srv digests codec =
  let sum name =
    List.fold_left
      (fun a d ->
        a + Server.Store.size_of (Server.Store.meta (Server.store srv) d)
              (Server.Artifact.by_name name))
      0 digests
  in
  float_of_int (sum codec) /. float_of_int (sum "native")

(* What the benchmark itself saw, to compare with the server's report. *)
type counters = {
  mutable requests : int;
  mutable fetches : int;
  mutable fetch_hits : int;
  fetch_bytes : (string, int) Hashtbl.t;  (* codec -> bytes served *)
  mutable opens : int;
  mutable chunks : int;
  mutable chunk_bytes : int;
  mutable handshake_bytes : int;
}

let counters () =
  { requests = 0; fetches = 0; fetch_hits = 0; fetch_bytes = Hashtbl.create 8; opens = 0;
    chunks = 0; chunk_bytes = 0; handshake_bytes = 0 }

let add_fetch c ~codec ~hit bytes =
  c.requests <- c.requests + 1;
  c.fetches <- c.fetches + 1;
  if hit then c.fetch_hits <- c.fetch_hits + 1;
  Hashtbl.replace c.fetch_bytes codec
    (bytes + Option.value ~default:0 (Hashtbl.find_opt c.fetch_bytes codec))

(* Whole-image bytes the benchmark saw served by codecs that
   [Server.report] has no row for: its [by_repr] (and so
   [total_bytes_served]) lists only the context-free artifacts, so
   shared-dictionary and delta serves are missing from it. Printed by
   every run, not compared. *)
let unreported_bytes c =
  Hashtbl.fold
    (fun codec n a ->
      if List.exists (fun r -> Server.Artifact.name r = codec) (Server.Artifact.all ())
      then a
      else a + n)
    c.fetch_bytes 0

(* [exact_cache]: every cache lookup of the phase is one the benchmark
   can see (a fetch's own lookup, or a session's), as on a warm cache.
   Otherwise the store's own menu-prefetch lookups also count, and the
   benchmark's view is a lower bound. Returns the disagreements. *)
let cross_check ~exact_cache c (d : Server.Stats.report) =
  let errs = ref [] in
  let expect what ours theirs =
    if ours <> theirs then
      errs := Printf.sprintf "%s: benchmark %d, Server.report %d" what ours theirs :: !errs
  in
  expect "requests" c.requests d.Server.Stats.requests;
  List.iter
    (fun r ->
      let codec = Server.Artifact.name r in
      let theirs =
        match
          List.find_opt
            (fun (x : Server.Stats.repr_report) -> x.Server.Stats.repr = r)
            d.Server.Stats.by_repr
        with
        | Some x -> x.Server.Stats.bytes_served
        | None -> 0
      in
      expect ("bytes served as " ^ codec)
        (Option.value ~default:0 (Hashtbl.find_opt c.fetch_bytes codec))
        theirs)
    (Server.Artifact.all ());
  expect "chunks served" c.chunks d.Server.Stats.chunks_served;
  expect "session bytes" (c.chunk_bytes + c.handshake_bytes) d.Server.Stats.session_bytes;
  let hits = d.Server.Stats.cache.Server.Cache.hits
  and misses = d.Server.Stats.cache.Server.Cache.misses in
  let our_hits = c.fetch_hits + c.opens in
  let our_misses = c.fetches - c.fetch_hits in
  if exact_cache then begin
    expect "cache hits" our_hits hits;
    expect "cache misses" our_misses misses
  end
  else begin
    if hits < c.fetch_hits then expect "cache hits (at least)" c.fetch_hits hits;
    if misses < our_misses then expect "cache misses (at least)" our_misses misses
  end;
  List.rev !errs

(* The handshake's wire cost, as the session layer charges it: an
   8-byte header plus a length-prefixed name and a size field per
   index row. *)
let handshake_bytes rows =
  List.fold_left (fun a (n, _) -> a + String.length n + 5) 8 rows

(* ---- the fixed per-layer metric list ---- *)

(* Whole-image decode stages of the codecs a fetch can serve. *)
let verify_stages =
  [ "identity"; "inflate"; "unbundle"; "crc32"; "range-decode"; "lza-decode";
    "shared-inflate"; "parse"; "apply" ]

(* Stored (context-free) codecs and the stages their encoders report. *)
let encode_stages =
  [ ("native", [ "emit" ]);
    ("gzip+native", [ "emit"; "lz77"; "huffman" ]);
    ("wire", [ "patternize"; "mtf+huffman"; "lz77"; "huffman"; "crc32" ]);
    ("wire+range", [ "patternize"; "mtf+huffman"; "range-2"; "crc32" ]);
    ("chunked-wire", [ "chunk+wire"; "frame" ]);
    ("brisc", [ "dict+markov"; "container" ]);
    ("deflate-opt", [ "lz77-opt"; "huffman" ]);
    ("wire+range-opt", [ "patternize"; "mtf+huffman"; "range-opt"; "crc32" ]) ]

let fixed =
  [ ("engine.fetch_ms", "ms"); ("engine.score_self_ms", "ms");
    ("store.materialize_ms", "ms"); ("store.hit_ratio", "ratio");
    ("store.evictions_per_op", "count"); ("store.publish_ms", "ms");
    ("codec.verify_ms", "ms"); ("gc.major_words_per_op", "words");
    ("delta.encode_ms", "ms"); ("delta.patch_bytes", "B");
    ("session.open_ms", "ms"); ("session.chunk_us", "us");
    ("wire.chunk_decompress_us", "us"); ("protocol.frame_us", "us");
    ("protocol.frame_bytes_per_op", "B"); ("pager.faults", "count");
    ("pager.evictions", "count"); ("pager.stall_cycles", "cycles");
    ("pager.resident_hwm_bytes", "B"); ("vm.interp_ms", "ms");
    ("brisc.interp_ms", "ms"); ("vm.steps_per_s", "1/s");
    ("brisc.steps_per_s", "1/s"); ("cc.compile_ms", "ms");
    ("native.sim_ms", "ms"); ("trace.overhead_ratio", "ratio");
    ("host.speed", "ratio") ]

let verify_name s = "codec.verify." ^ Loop.sanitize s ^ "_ms"
let encode_name c = "codec.encode." ^ Loop.sanitize c ^ "_ms"
let encode_stage_name c s = "codec.encode." ^ Loop.sanitize c ^ "." ^ Loop.sanitize s ^ "_ms"

let names =
  fixed
  @ List.map (fun s -> (verify_name s, "ms")) verify_stages
  @ List.concat_map
      (fun (c, stages) ->
        (encode_name c, "ms") :: List.map (fun s -> (encode_stage_name c s, "ms")) stages)
      encode_stages

(* Turn the raw sums into the named figures: verify stages as ms per
   fetch, encoders as ms per compression (and per stage, per call). *)
let finalize t ~fetches =
  List.iter
    (fun s ->
      let k = "verify." ^ Loop.sanitize s in
      if fetches > 0 then set t (verify_name s) (1000. *. get t k /. float_of_int fetches))
    verify_stages;
  List.iter
    (fun (c, stages) ->
      let c' = Loop.sanitize c in
      let calls = get t ("enc." ^ c' ^ ".calls") in
      if calls > 0. then begin
        set t (encode_name c) (1000. *. get t ("enc." ^ c' ^ ".s") /. calls);
        List.iter
          (fun s ->
            set t (encode_stage_name c s)
              (1000. *. get t ("enc." ^ c' ^ ".stage." ^ Loop.sanitize s) /. calls))
          stages
      end)
    encode_stages
