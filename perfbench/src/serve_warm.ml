(* serve-warm: Zipf-popular whole-image fetches and chunked streams over
   the [full] catalog, every menu artifact cached before timing starts.

   A block is 96 ops with a fixed make-up; the seed decides their
   order. Three quarters are whole-image fetches: a third from the
   datacenter profile (served native, µs), two thirds from modem and
   lan, one in eight of those advertising the shared dictionary. So
   the fetch p50 sits inside the modem/lan wire decode mode, away from
   the boundary with the fast native and shared-dictionary serves. The
   other quarter are streams: open a session, then request every
   function the program's run touches. Every response is framed with
   [Net.Protocol.encode_resp] and decoded back. *)

type profile = Modem | Lan | Datacenter

type op =
  | Fetch of { prog : int; profile : profile; dict : bool }
  | Stream of { prog : int }

let fetches_per_block = 72
let streams_per_block = 24

let profile_of = function
  | Modem -> Server.Profile.modem
  | Lan -> Server.Profile.lan
  | Datacenter -> Server.Profile.datacenter

(* The fixed make-up of one block over a catalog of [n] programs, in
   popularity (= catalog) order. *)
let block_ops ~n =
  let fetch_progs = Loop.expand (Loop.zipf_quotas ~n ~total:fetches_per_block) in
  let slow = ref 0 in
  let fetches =
    List.mapi
      (fun i prog ->
        match i mod 3 with
        | 0 -> Fetch { prog; profile = Datacenter; dict = false }
        | k ->
          incr slow;
          Fetch { prog; profile = (if k = 1 then Modem else Lan); dict = !slow mod 8 = 4 })
      fetch_progs
  in
  let streams =
    List.map
      (fun prog -> Stream { prog })
      (Loop.expand (Loop.zipf_quotas ~n ~total:streams_per_block))
  in
  Array.of_list (fetches @ streams)

let catalog_size = 16  (* Sim.Catalog.Full: 14 corpus programs + gen24 + gen40 *)

let draw ~seed =
  let rng = Support.Prng.create (Int64.of_int seed) in
  let block = block_ops ~n:catalog_size in
  Array.init Loop.drawn_blocks (fun _ -> Loop.shuffle rng block)

type state = {
  srv : Server.t;
  cat : Server.Workload.entry array;
  dict : string;  (* the shared dictionary's digest *)
}

let held st dict = if dict then [ st.dict ] else []

(* the host-speed unit that follows this workload (see Calib) *)
let calib = Calib.Memory

let setup () =
  let pool = Support.Pool.create ~domains:1 in
  let srv = Server.create ~pool ~budget_bytes:(64 * 1024 * 1024) () in
  let cat = Array.of_list (Sim.Catalog.publish srv Sim.Catalog.Full) in
  if Array.length cat <> catalog_size then failwith "serve-warm: unexpected catalog size";
  let st = { srv; cat; dict = Codec.Context.builtin_digest () } in
  (* warm: one of every distinct op, so contexted artifacts exist and
     every timed lookup is a cache hit *)
  Array.iter
    (function
      | Fetch { prog; profile; dict } ->
        ignore (Server.fetch ~held:(held st dict) srv cat.(prog).Server.Workload.digest
                  (profile_of profile))
      | Stream { prog } ->
        ignore (Server.open_session srv cat.(prog).Server.Workload.digest))
    (block_ops ~n:catalog_size);
  st

let references st =
  Array.map
    (fun (e : Server.Workload.entry) ->
      let input =
        match Corpus.Programs.find e.Server.Workload.name with
        | Some p -> p.Corpus.Programs.input
        | None -> ""
      in
      Reference.of_ir ~input (Server.Store.meta (Server.store st.srv) e.Server.Workload.digest).Server.Store.ir)
    st.cat

(* Frame a response and decode it back, as a client would receive it. *)
let round_trip resp =
  Spans.span "protocol.frame" (fun () ->
      let frame = Net.Protocol.encode_resp resp in
      match Net.Protocol.decode_resp (String.sub frame 4 (String.length frame - 4)) with
      | Ok r -> (r, String.length frame)
      | Error e -> failwith ("protocol: " ^ Support.Decode_error.to_string e))

let run ~traced ~seconds ~min_blocks ~blocks st (refs : Reference.prog array) =
  let layers = Layers.create () in
  let c = Layers.counters () in
  let memo = Reference.memo () in
  let before = Server.report st.srv in
  let frame_bytes = ref 0 and payload = ref 0 and det_payload = ref 0 in
  let det_ops = ref 0 in
  let verify ~ctx codec bytes =
    (* the engine's verify-decode, replayed on the served bytes *)
    match Spans.span "codec.verify" (fun () -> Reference.decode ?ctx codec bytes) with
    | Ok (_, tr) -> Layers.add_trace layers "verify" tr
    | Error _ -> ()
  in
  let exec ~block ~id:_ op =
    let count_payload n =
      payload := !payload + n;
      if block < min_blocks then det_payload := !det_payload + n
    in
    if block < min_blocks then incr det_ops;
    match op with
    | Fetch { prog; profile; dict } ->
      let e = st.cat.(prog) in
      let r =
        Spans.span "engine.fetch" (fun () ->
            Server.fetch ~held:(held st dict) st.srv e.Server.Workload.digest (profile_of profile))
      in
      let codec = Server.Artifact.name r.Server.artifact in
      let resp, fb =
        round_trip
          (Net.Protocol.Artifact
             { label = r.Server.label; codec; cache_hit = r.Server.cache_hit;
               degraded_from = Option.value ~default:"" r.Server.degraded_from;
               context = Option.value ~default:"" r.Server.context; body = r.Server.bytes })
      in
      frame_bytes := !frame_bytes + fb;
      count_payload r.Server.size;
      Layers.add_fetch c ~codec ~hit:r.Server.cache_hit r.Server.size;
      { Loop.cls = "fetch";
        check = (fun () ->
          match resp with
          | Net.Protocol.Artifact a when a.body = r.Server.bytes ->
            let ctx =
              match r.Server.context with
              | None -> None
              | Some d when d = st.dict -> Some (Codec.Context.builtin ())
              | Some _ -> failwith "serve-warm: unexpected delta serve"
            in
            if traced then verify ~ctx codec a.body;
            Reference.check_artifact memo refs.(prog) ~codec ?ctx a.body
          | _ -> false) }
    | Stream { prog } ->
      let e = st.cat.(prog) in
      let s = Spans.span "session.open" (fun () -> Server.open_session st.srv e.Server.Workload.digest) in
      let rows = Server.Session.index s in
      let idx, fb =
        round_trip
          (Net.Protocol.Index
             { token = Server.Session.digest s; next_seq = Server.Session.next_seq s;
               context = ""; rows })
      in
      frame_bytes := !frame_bytes + fb;
      c.requests <- c.requests + 1;
      c.opens <- c.opens + 1;
      c.handshake_bytes <- c.handshake_bytes + Layers.handshake_bytes rows;
      let chunks =
        List.mapi
          (fun seq name ->
            c.requests <- c.requests + 1;
            match
              Spans.span "session.chunk" (fun () -> Server.session_request st.srv s ~seq name)
            with
            | Ok bytes ->
              let resp, fb = round_trip (Net.Protocol.Chunk_data bytes) in
              frame_bytes := !frame_bytes + fb;
              count_payload (String.length bytes);
              c.chunks <- c.chunks + 1;
              c.chunk_bytes <- c.chunk_bytes + String.length bytes;
              (name, resp)
            | Error msg -> failwith ("session: " ^ msg))
          e.Server.Workload.wanted
      in
      { Loop.cls = "stream";
        check = (fun () ->
          (match idx with
           | Net.Protocol.Index i -> i.rows = rows
           | _ -> false)
          && List.for_all
               (fun (name, resp) ->
                 match resp with
                 | Net.Protocol.Chunk_data bytes ->
                   if traced then
                     ignore (Spans.span "wire.chunk_decompress" (fun () -> Reference.decode_chunk bytes));
                   Reference.check_chunk memo refs.(prog) name bytes
                 | _ -> false)
               chunks) }
  in
  let gc0 = Gc.quick_stat () in
  let res = Loop.run ~calib ~seconds ~min_blocks ~blocks exec in
  let gc1 = Gc.quick_stat () in
  let d = Server.Stats.diff ~before (Server.report st.srv) in
  let errs = Layers.cross_check ~exact_cache:true c d in
  let unreported = Layers.unreported_bytes c in
  let ops = float_of_int res.Loop.attempted in
  (* per-layer figures *)
  let agg = Spans.aggregate () in
  let fetch_ms = Spans.mean_ms agg "engine.fetch" and verify_ms = Spans.mean_ms agg "codec.verify" in
  let fetches = float_of_int (max 1 c.fetches) in
  let materialize_ms = 1000. *. Layers.compress_s d /. fetches in
  let set = Layers.set layers in
  set "engine.fetch_ms" fetch_ms;
  set "codec.verify_ms" verify_ms;
  set "store.materialize_ms" materialize_ms;
  set "engine.score_self_ms" (if traced then fetch_ms -. materialize_ms -. verify_ms else 0.);
  set "session.open_ms" (Spans.mean_ms agg "session.open");
  set "session.chunk_us" (1000. *. Spans.mean_ms agg "session.chunk");
  set "wire.chunk_decompress_us" (1000. *. Spans.mean_ms agg "wire.chunk_decompress");
  set "protocol.frame_us" (1000. *. Spans.mean_ms agg "protocol.frame");
  set "protocol.frame_bytes_per_op" (float_of_int !frame_bytes /. ops);
  set "gc.major_words_per_op" ((gc1.Gc.major_words -. gc0.Gc.major_words) /. ops);
  Layers.add_compressions layers d;
  Layers.finalize layers ~fetches:c.Layers.fetches;
  let cache = d.Server.Stats.cache in
  set "store.hit_ratio" (Server.Cache.hit_rate cache);
  set "store.evictions_per_op" (float_of_int cache.Server.Cache.evictions /. ops);
  let digests = Array.to_list (Array.map (fun e -> e.Server.Workload.digest) st.cat) in
  let e2e =
    [ Loop.metric "ops_per_s" "1/s" (Loop.ops_per_s res);
      Loop.metric "op_p50_ms" "ms" (Loop.percentile res "fetch" 0.5);
      Loop.metric "bytes_per_op" "B" (float_of_int !det_payload /. float_of_int !det_ops);
      Loop.metric "wire_size_ratio" "ratio" (Layers.size_ratio st.srv digests "wire");
      Loop.metric "brisc_size_ratio" "ratio" (Layers.size_ratio st.srv digests "brisc");
      Loop.metric "chunked_size_ratio" "ratio" (Layers.size_ratio st.srv digests "chunked-wire") ]
  in
  let extra =
    [ Loop.metric "fetch_p50_ms" "ms" (Loop.percentile res "fetch" 0.5) ]
    @ (if Loop.count res "fetch" >= 1000 then
         [ Loop.metric "fetch_p99_ms" "ms" (Loop.percentile res "fetch" 0.99) ]
       else [])
    @ [ Loop.metric "stream_p50_ms" "ms" (Loop.percentile res "stream" 0.5);
        Loop.metric "unreported_contexted_bytes" "B" (float_of_int unreported);
        Loop.metric "fetches" "count" (float_of_int (Loop.count res "fetch"));
        Loop.metric "streams" "count" (float_of_int (Loop.count res "stream")) ]
  in
  (res, e2e, extra, layers, errs)
