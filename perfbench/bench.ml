(* perfbench: one closed-loop run of one workload.

     bench.exe --workload serve-warm --seed 1 --seconds 10 --trace 0

   Sets the workload up three times (reporting the median as setup_s),
   draws the whole op list from the seed, runs it for --seconds of op
   time and checks every op's output. The last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With --trace 1
   the run is repeated with spans on, and the metrics are the
   per-layer figures plus the tracing overhead. *)

open Perfbench

let setups = 3
let min_blocks = 2

(* Every workload prints every metric below. The per-layer list is
   [Layers.names]; a layer a workload bypasses reads 0 there. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("ok_ratio", "ratio");
    ("peak_rss_mb", "MB"); ("op_p50_ms", "ms"); ("bytes_per_op", "B");
    ("wire_size_ratio", "ratio"); ("brisc_size_ratio", "ratio");
    ("chunked_size_ratio", "ratio") ]

type 'st workload = {
  calib : Calib.unit_;
  setup : unit -> 'st;
  run :
    traced:bool -> seconds:float -> seed:int -> 'st ->
    Loop.result * Loop.metric list * Loop.metric list * Layers.t * string list;
}

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (m : Loop.metric) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Loop.name m.Loop.value m.Loop.unit)
       ms)

let main (type st) (w : st workload) ~name ~seed ~seconds ~trace =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let times = ref [] and raw_times = ref [] and st = ref None in
  for _ = 1 to setups do
    st := None;
    Gc.full_major ();
    let c0 = Calib.time w.calib in
    let t0 = Unix.gettimeofday () in
    let s = w.setup () in
    let dt = Unix.gettimeofday () -. t0 in
    let c1 = Calib.time w.calib in
    raw_times := dt :: !raw_times;
    times := (dt *. Calib.reference_s w.calib /. ((c0 +. c1) /. 2.)) :: !times;
    st := Some s
  done;
  let st = Option.get !st in
  let setup_s = Loop.median !times in
  (* start every timed phase from the same, compacted heap, whatever
     garbage the set-ups left behind *)
  Gc.compact ();
  let res, e2e, extra, layers, errs = w.run ~traced:false ~seconds ~seed st in
  let print_m (m : Loop.metric) = Printf.printf "  %-28s %14.4f %s\n" m.Loop.name m.Loop.value m.Loop.unit in
  Printf.printf "%s seed %d: %d ops in %d blocks, %.2f s of op time, %d failed\n"
    name seed res.Loop.attempted res.Loop.blocks res.Loop.op_s res.Loop.failed;
  Printf.printf "  raw (host speed %.3f of reference): setup_s %.4f s, ops_per_s %.4f 1/s\n"
    (Loop.median (Array.to_list res.Loop.speed)) (Loop.median !raw_times) (Loop.ops_per_s ~raw:true res);
  List.iter print_m extra;

  List.iter (fun e -> Printf.printf "  counter mismatch: %s\n" e) errs;
  let ok_ratio =
    float_of_int (res.Loop.attempted - res.Loop.failed) /. float_of_int res.Loop.attempted
  in
  let attempted, failed, errs, metrics =
    if not trace then begin
      let ms =
        [ Loop.metric "setup_s" "s" setup_s;
          Loop.metric "ok_ratio" "ratio" ok_ratio;
          Loop.metric "peak_rss_mb" "MB" (Loop.peak_rss_mb ()) ]
        @ e2e
      in
      let ms = List.map (fun (n, _) -> List.find (fun (m : Loop.metric) -> m.Loop.name = n) ms) end_to_end in
      (res.Loop.attempted, res.Loop.failed, errs, ms)
    end
    else begin
      Spans.reset ();
      Spans.enabled := true;
      let tres, _, _, tlayers, terrs = w.run ~traced:true ~seconds ~seed st in
      Spans.enabled := false;
      let dir = ".perfbench" in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Printf.sprintf "%s/spans-%s-%d.tsv" dir name seed in
      Spans.write path;
      Layers.set tlayers "gc.major_words_per_op" (Layers.get layers "gc.major_words_per_op");
      Layers.set tlayers "trace.overhead_ratio" (Loop.ops_per_s res /. Loop.ops_per_s tres);
      Layers.set tlayers "host.speed" (Loop.median (Array.to_list tres.Loop.speed));
      Printf.printf "traced: %d ops, %.1f ops/s traced vs %.1f untraced; spans in %s\n"
        tres.Loop.attempted (Loop.ops_per_s tres) (Loop.ops_per_s res) path;
      List.iter (fun e -> Printf.printf "  counter mismatch (traced): %s\n" e) terrs;
      let agg = Spans.aggregate () in
      List.iter
        (fun (n, (a : Spans.agg)) ->
          let per x = 1000. *. x /. float_of_int a.Spans.count in
          Printf.printf "  span %-24s %7d calls  %10.4f ms mean  %10.4f ms self\n" n
            a.Spans.count (per a.Spans.total_s) (per a.Spans.self_s))
        (List.sort compare (List.of_seq (Hashtbl.to_seq agg)));
      let ms = List.map (fun (n, u) -> Loop.metric n u (Layers.get tlayers n)) Layers.names in
      (res.Loop.attempted + tres.Loop.attempted, res.Loop.failed + tres.Loop.failed,
       errs @ terrs, ms)
    end
  in
  let correct = failed = 0 && errs = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics);
  if not correct then exit 1

let serve_warm =
  { calib = Serve_warm.calib;
    setup = Serve_warm.setup;
    run = (fun ~traced ~seconds ~seed st ->
      let blocks = Serve_warm.draw ~seed in
      Serve_warm.run ~traced ~seconds ~min_blocks ~blocks st (Serve_warm.references st)) }

let release_churn =
  { calib = Release_churn.calib;
    setup = Release_churn.setup;
    run = (fun ~traced ~seconds ~seed st ->
      Release_churn.run ~traced ~seconds ~min_blocks ~blocks:(Release_churn.draw ~seed) st) }

let paged_exec =
  { calib = Paged_exec.calib;
    setup = Paged_exec.setup;
    run = (fun ~traced ~seconds ~seed st ->
      Paged_exec.run ~traced ~seconds ~min_blocks ~blocks:(Paged_exec.draw ~seed) st
        (Paged_exec.references st)) }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "serve-warm | release-churn | paged-exec");
      ("--seed", Arg.Set_int seed, "op-list seed");
      ("--seconds", Arg.Set_float seconds, "op time to measure");
      ("--trace", Arg.Set_int trace, "1 = traced run with per-layer metrics") ]
    (fun a -> raise (Arg.Bad a)) "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  match !workload with
  | "serve-warm" -> main serve_warm ~name:"serve-warm" ~seed ~seconds ~trace
  | "release-churn" -> main release_churn ~name:"release-churn" ~seed ~seconds ~trace
  | "paged-exec" -> main paged_exec ~name:"paged-exec" ~seed ~seconds ~trace
  | w ->
    Printf.eprintf "bench: unknown workload %S\n" w;
    exit 2
