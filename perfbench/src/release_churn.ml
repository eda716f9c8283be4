(* release-churn: rounds of publishing new versions of generated
   programs, each followed by the fetches a release brings.

   Three program lines (8, 16 and 24 functions). Version k of a line is
   its generated source plus one small helper function numbered k, so
   consecutive versions share every other function verbatim, like the
   old/new pairs of [Sim.Catalog.Versioned]. A block publishes the next
   version of every line, in an order the seed decides; after each
   publish come 8 upgrade fetches that hold the line's previous version
   and the shared dictionary (so the delta channel competes) and 8 fresh
   fetches of the new version, in a seed-decided order. The cache
   budget is below the working set, so publishes evict and misses
   recompress. *)

type profile = Modem | Lan | Datacenter

type op =
  | Publish of { line : int }
  | Upgrade of { line : int; profile : profile }
  | Fresh of { line : int; profile : profile; dict : bool }

let lines =
  [| { Corpus.Gen.functions = 6; seed = 0x7E1L; bias16 = false };
     { Corpus.Gen.functions = 14; seed = 0x7E2L; bias16 = false };
     { Corpus.Gen.functions = 22; seed = 0x7E3L; bias16 = false } |]

let budget_bytes = 48 * 1024

let profile_of = function
  | Modem -> Server.Profile.modem
  | Lan -> Server.Profile.lan
  | Datacenter -> Server.Profile.datacenter

(* One publish and the 16 fetches after it. Upgrades are half of them,
   so the fetch p50 falls among the delta serves, and each fresh kind
   appears twice. *)
let group line =
  let fresh = [| Fresh { line; profile = Modem; dict = false };
                 Fresh { line; profile = Lan; dict = false };
                 Fresh { line; profile = Datacenter; dict = false };
                 Fresh { line; profile = Modem; dict = true } |] in
  ( Publish { line },
    Array.concat
      [ Array.init 8 (fun i -> Upgrade { line; profile = (if i mod 2 = 0 then Modem else Lan) });
        fresh; fresh ] )

let draw ~seed =
  let rng = Support.Prng.create (Int64.of_int seed) in
  Array.init Loop.drawn_blocks (fun _ ->
      let order = Loop.shuffle rng (Array.init (Array.length lines) (fun i -> i)) in
      Array.concat
        (List.map
           (fun line ->
             let p, fetches = group line in
             Array.append [| p |] (Loop.shuffle rng fetches))
           (Array.to_list order)))

let source line k =
  (Corpus.Gen.generate lines.(line)).Corpus.Programs.source
  ^ Printf.sprintf "\nint rel_v%d(int a) { return a * %d + %d; }\n" k ((k mod 7) + 2) k

type version = { ir : Ir.Tree.program; digest : string }

type state = {
  srv : Server.t;
  dict : string;
  current : version array;          (* per line *)
  previous : version option array;  (* per line *)
  next_k : int array;
}

let compile line k = Cc.Lower.compile (source line k)

let publish_version srv line k =
  let ir = Spans.span "cc.compile" (fun () -> compile line k) in
  let digest = Spans.span "store.publish" (fun () -> Server.publish srv ir) in
  { ir; digest }

(* the host-speed unit that follows this workload (see Calib) *)
let calib = Calib.Mixed

let setup () =
  let pool = Support.Pool.create ~domains:1 in
  let srv = Server.create ~pool ~budget_bytes () in
  let current = Array.init (Array.length lines) (fun line -> publish_version srv line 0) in
  let dict = Codec.Context.builtin_digest () in
  Array.iter
    (fun v ->
      List.iter
        (fun (p, held) -> ignore (Server.fetch ~held srv v.digest (profile_of p)))
        [ (Modem, []); (Lan, []); (Datacenter, []); (Modem, [ dict ]) ])
    current;
  { srv; dict; current; previous = Array.map (fun _ -> None) lines;
    next_k = Array.map (fun _ -> 1) lines }

let run ~traced ~seconds ~min_blocks ~blocks st =
  let layers = Layers.create () in
  let c = Layers.counters () in
  let memo = Reference.memo () in
  let refs = Hashtbl.create 64 in
  let reference (v : version) =
    match Hashtbl.find_opt refs v.digest with
    | Some r -> r
    | None ->
      let r = Reference.of_ir ~input:"" v.ir in
      Hashtbl.replace refs v.digest r;
      r
  in
  let before = Server.report st.srv in
  let last = ref before in
  (* store work done inside one op, from the report delta (traced) *)
  let op_delta cls =
    if traced then begin
      let now = Server.report st.srv in
      let d = Server.Stats.diff ~before:!last now in
      last := now;
      Layers.add layers (cls ^ ".compress_s") (Layers.compress_s d)
    end
  in
  let payload = ref 0 and det_ops = ref 0 in
  let det_digests = ref [] in
  let delta_bytes = ref 0 and delta_serves = ref 0 in
  let exec ~block ~id:_ op =
    if block < min_blocks then incr det_ops;
    match op with
    | Publish { line } ->
      let k = st.next_k.(line) in
      let v = publish_version st.srv line k in
      st.next_k.(line) <- k + 1;
      st.previous.(line) <- Some st.current.(line);
      st.current.(line) <- v;
      if block < min_blocks then det_digests := v.digest :: !det_digests;
      { Loop.cls = "publish";
        check = (fun () ->
          op_delta "publish";
          if traced then
            ignore
              (Spans.span "native.sim" (fun () ->
                   Native.Sim.run (Native.Compile.compile_program (Vm.Codegen.gen_program v.ir))));
          let m = Server.Store.meta (Server.store st.srv) v.digest in
          Ir.Printer.program_to_string m.Server.Store.ir = (reference v).Reference.printed
          && v.digest = Server.Store.digest_of_program v.ir) }
    | Upgrade { line; profile = p } | Fresh { line; profile = p; _ } ->
      let v = st.current.(line) in
      let held =
        match op, st.previous.(line) with
        | Upgrade _, Some prev -> [ prev.digest; st.dict ]
        | Fresh { dict = true; _ }, _ -> [ st.dict ]
        | _ -> []
      in
      let r =
        Spans.span "engine.fetch" (fun () -> Server.fetch ~held st.srv v.digest (profile_of p))
      in
      let codec = Server.Artifact.name r.Server.artifact in
      Layers.add_fetch c ~codec ~hit:r.Server.cache_hit r.Server.size;
      if block < min_blocks then payload := !payload + r.Server.size;
      if codec = "delta" then begin
        incr delta_serves;
        delta_bytes := !delta_bytes + r.Server.size
      end;
      let ctx =
        match r.Server.context with
        | None -> None
        | Some d when d = st.dict -> Some (Codec.Context.builtin ())
        | Some d -> (
          match st.previous.(line) with
          | Some prev when prev.digest = d ->
            Some (Codec.Context.base ~ir_text:(Ir.Printer.program_to_string prev.ir))
          | _ -> failwith "release-churn: delta against a base the client does not hold")
      in
      { Loop.cls = "fetch";
        check = (fun () ->
          op_delta "fetch";
          if traced && codec = "delta" then begin
            (* the store's delta build, replayed against the same base *)
            let src = Codec.Source.of_ir v.ir in
            ignore (Spans.span "delta.encode" (fun () -> Codec.encode ?ctx Codec.delta_codec src))
          end;
          if traced then (
            match Spans.span "codec.verify" (fun () -> Reference.decode ?ctx codec r.Server.bytes) with
            | Ok (_, tr) -> Layers.add_trace layers "verify" tr
            | Error _ -> ());
          Reference.check_artifact memo (reference v) ~codec ?ctx r.Server.bytes) }
  in
  let gc0 = Gc.quick_stat () in
  let res = Loop.run ~calib ~seconds ~min_blocks ~blocks exec in
  let gc1 = Gc.quick_stat () in
  let d = Server.Stats.diff ~before (Server.report st.srv) in
  let errs = Layers.cross_check ~exact_cache:false c d in
  let ops = float_of_int res.Loop.attempted in
  let agg = Spans.aggregate () in
  let set = Layers.set layers in
  let fetches = float_of_int (max 1 c.Layers.fetches) in
  let fetch_ms = Spans.mean_ms agg "engine.fetch" and verify_ms = Spans.mean_ms agg "codec.verify" in
  let materialize_ms = 1000. *. Layers.get layers "fetch.compress_s" /. fetches in
  set "engine.fetch_ms" fetch_ms;
  set "codec.verify_ms" verify_ms;
  set "store.materialize_ms" materialize_ms;
  set "engine.score_self_ms" (if traced then fetch_ms -. materialize_ms -. verify_ms else 0.);
  set "store.publish_ms" (Spans.mean_ms agg "store.publish");
  set "cc.compile_ms" (Spans.mean_ms agg "cc.compile");
  set "native.sim_ms" (Spans.mean_ms agg "native.sim");
  set "delta.patch_bytes"
    (if !delta_serves = 0 then 0. else float_of_int !delta_bytes /. float_of_int !delta_serves);
  set "gc.major_words_per_op" ((gc1.Gc.major_words -. gc0.Gc.major_words) /. ops);
  Layers.add_compressions layers d;
  Layers.finalize layers ~fetches:c.Layers.fetches;
  set "delta.encode_ms" (Spans.mean_ms agg "delta.encode");
  let cache = d.Server.Stats.cache in
  set "store.hit_ratio" (Server.Cache.hit_rate cache);
  set "store.evictions_per_op" (float_of_int cache.Server.Cache.evictions /. ops);
  (* size ratios over the versions the first blocks published *)
  let ratio = Layers.size_ratio st.srv !det_digests in
  let e2e =
    [ Loop.metric "ops_per_s" "1/s" (Loop.ops_per_s res);
      Loop.metric "op_p50_ms" "ms" (Loop.percentile res "fetch" 0.5);
      Loop.metric "bytes_per_op" "B" (float_of_int !payload /. float_of_int !det_ops);
      Loop.metric "wire_size_ratio" "ratio" (ratio "wire");
      Loop.metric "brisc_size_ratio" "ratio" (ratio "brisc");
      Loop.metric "chunked_size_ratio" "ratio" (ratio "chunked-wire") ]
  in
  let extra =
    [ Loop.metric "fetch_p50_ms" "ms" (Loop.percentile res "fetch" 0.5) ]
    @ (if Loop.count res "fetch" >= 1000 then
         [ Loop.metric "fetch_p99_ms" "ms" (Loop.percentile res "fetch" 0.99) ]
       else [])
    @ [ Loop.metric "publish_p50_ms" "ms" (Loop.percentile res "publish" 0.5);
        Loop.metric "unreported_contexted_bytes" "B" (float_of_int (Layers.unreported_bytes c));
        Loop.metric "delta_serves" "count" (float_of_int !delta_serves);
        Loop.metric "fetches" "count" (float_of_int (Loop.count res "fetch"));
        Loop.metric "publishes" "count" (float_of_int (Loop.count res "publish"));
        Loop.metric "evictions" "count" (float_of_int cache.Server.Cache.evictions);
        Loop.metric "hit_ratio" "ratio" (Server.Cache.hit_rate cache) ]
  in
  (res, e2e, extra, layers, errs)
