(* paged-exec: compressed code executed without expanding it first.

   Two generated programs from BENCH_paging.json's points, gen-80 and
   gen-120, in their profile-guided hot layout. The chunked-wire image
   runs under the demand pager at 25% and 12% of its decompressed
   footprint, with a warm code cache across 8 repeats; the BRISC image
   runs in place under a pager holding a quarter of its compressed
   bytes. A block is each of those six runs once, in a seed-decided
   order. The server and the network layer do no work here. *)

type op = Vm_run of { prog : int; pct : int } | Brisc_run of { prog : int }

let points = [| ("gen-80", 80, 101L); ("gen-120", 120, 0x1CCL) |]
let repeat = 8

let block =
  Array.concat
    (List.init (Array.length points) (fun prog ->
         [| Vm_run { prog; pct = 25 }; Vm_run { prog; pct = 12 }; Brisc_run { prog } |]))

let draw ~seed =
  let rng = Support.Prng.create (Int64.of_int seed) in
  Array.init Loop.drawn_blocks (fun _ -> Loop.shuffle rng block)

type prog = {
  ir : Ir.Tree.program;     (* hot layout *)
  input : string;
  image : Wire.Chunked.t;
  vm_bytes : int;           (* decompressed footprint of [image] *)
  brisc : Brisc.Emit.image;
  brisc_code_bytes : int;
  sizes : (string * int) list;  (* codec -> bytes *)
}

let setup_prog (_, functions, seed) =
  let e = Corpus.Gen.generate { Corpus.Gen.functions; seed; bias16 = false } in
  let input = e.Corpus.Programs.input in
  let ir = Cc.Lower.compile e.Corpus.Programs.source in
  let vp = Vm.Codegen.gen_program ir in
  let prof = Vm.Profile.collect ~input vp in
  let hot = Vm.Layout.affinity_heat ~trace:(Vm.Profile.call_trace prof) in
  let ir_hot = Vm.Layout.reorder_ir ~hot ir in
  let vp_hot = Vm.Layout.hot_layout ~hot ~bhot:(Vm.Profile.block_hot prof) vp in
  let image = Wire.Chunked.compress ir_hot in
  let brisc = Brisc.compress vp_hot in
  let native =
    Native.Mach.encode_program (Native.Compile.compile_program (Vm.Codegen.gen_program ir_hot))
  in
  {
    ir = ir_hot;
    input;
    image;
    vm_bytes = Scenario.Paged.vm_image_bytes image;
    brisc;
    brisc_code_bytes =
      Array.fold_left (fun a (f : Brisc.Emit.ifunc) -> a + String.length f.Brisc.Emit.code)
        0 brisc.Brisc.Emit.ifuncs;
    sizes =
      [ ("native", String.length native);
        ("wire", String.length (Wire.compress ir_hot));
        ("brisc", String.length (Brisc.to_bytes brisc));
        ("chunked-wire", Wire.Chunked.size image) ];
  }

(* the host-speed unit that follows this workload (see Calib) *)
let calib = Calib.Mixed

let setup () = Array.map setup_prog points

(* The reference output: the native simulator on the source program. *)
let references (progs : prog array) =
  Array.map (fun p -> Reference.of_ir ~input:p.input p.ir) progs

let run ~traced ~seconds ~min_blocks ~blocks (progs : prog array) (refs : Reference.prog array) =
  let layers = Layers.create () in
  let det_loaded = ref 0 and det_ops = ref 0 in
  let vm_runs = ref 0 and brisc_runs = ref 0 in
  let pager (s : Vm.Pager.stats) =
    Layers.add layers "pager.faults" (float_of_int s.Vm.Pager.faults);
    Layers.add layers "pager.evictions" (float_of_int s.Vm.Pager.evictions);
    Layers.add layers "pager.stall_cycles" (float_of_int s.Vm.Pager.stall_cycles);
    Layers.add layers "pager.resident_hwm_bytes" (float_of_int s.Vm.Pager.resident_hwm)
  in
  let overhead25 = Hashtbl.create 4 and faults = ref 0 and det_vm = ref 0 in
  (* resident replays of the same programs, for the interpreters' own
     cost (traced only) *)
  let replay_interp p =
    let vp = Vm.Codegen.gen_program p.ir in
    let r = Spans.span "vm.interp" (fun () -> Vm.Interp.run ~input:p.input vp) in
    Layers.add layers "vm.steps" (float_of_int r.Vm.Interp.steps);
    for i = 0 to Wire.Chunked.chunk_count p.image - 1 do
      ignore (Spans.span "wire.chunk_decompress" (fun () -> Wire.Chunked.decompress_at p.image i))
    done
  in
  let exec ~block ~id:_ op =
    let det = block < min_blocks in
    if det then incr det_ops;
    match op with
    | Vm_run { prog; pct } ->
      let p = progs.(prog) in
      let cfg = Scenario.Paged.config ~budget_bytes:(p.vm_bytes * pct / 100) () in
      let r =
        Spans.span "scenario.run_vm" (fun () ->
            Scenario.Paged.run_vm ~cfg ~repeat ~input:p.input p.image)
      in
      { Loop.cls = "vm";
        check = (fun () ->
          match r with
          | Ok r ->
            let s = r.Scenario.Paged.stats in
            incr vm_runs;
            pager s;
            if det then begin
              incr det_vm;
              det_loaded := !det_loaded + s.Vm.Pager.loaded_bytes;
              faults := !faults + s.Vm.Pager.faults;
              if pct = 25 then Hashtbl.replace overhead25 prog r.Scenario.Paged.overhead
            end;
            if traced then replay_interp p;
            r.Scenario.Paged.res.Vm.Interp.output = refs.(prog).Reference.output
          | Error _ -> false) }
    | Brisc_run { prog } ->
      let p = progs.(prog) in
      let r =
        Spans.span "scenario.run_brisc" (fun () ->
            Scenario.Paged.run_brisc ~budget_bytes:(max 1 (p.brisc_code_bytes / 4)) ~input:p.input
              p.brisc)
      in
      { Loop.cls = "brisc";
        check = (fun () ->
          match r with
          | Ok r ->
            incr brisc_runs;
            pager r.Scenario.Paged.bstats;
            if det then det_loaded := !det_loaded + r.Scenario.Paged.bstats.Vm.Pager.loaded_bytes;
            if traced then begin
              let b = Spans.span "brisc.interp" (fun () -> Brisc.Interp.run ~input:p.input p.brisc) in
              Layers.add layers "brisc.steps" (float_of_int b.Brisc.Interp.vm_steps)
            end;
            r.Scenario.Paged.bres.Brisc.Interp.output = refs.(prog).Reference.output
          | Error _ -> false) }
  in
  let gc0 = Gc.quick_stat () in
  let res = Loop.run ~calib ~seconds ~min_blocks ~blocks exec in
  let gc1 = Gc.quick_stat () in
  let ops = float_of_int res.Loop.attempted in
  let runs = float_of_int (max 1 (!vm_runs + !brisc_runs)) in
  List.iter
    (fun k -> Layers.set layers k (Layers.get layers k /. runs))
    [ "pager.faults"; "pager.evictions"; "pager.stall_cycles"; "pager.resident_hwm_bytes" ];
  let agg = Spans.aggregate () in
  let vm_ms = Spans.mean_ms agg "vm.interp" and brisc_ms = Spans.mean_ms agg "brisc.interp" in
  let per_s steps ms n = if ms = 0. then 0. else steps /. n /. (ms /. 1000.) in
  Layers.set layers "vm.interp_ms" vm_ms;
  Layers.set layers "brisc.interp_ms" brisc_ms;
  Layers.set layers "vm.steps_per_s"
    (per_s (Layers.get layers "vm.steps") vm_ms (float_of_int (max 1 !vm_runs)));
  Layers.set layers "brisc.steps_per_s"
    (per_s (Layers.get layers "brisc.steps") brisc_ms (float_of_int (max 1 !brisc_runs)));
  Layers.set layers "wire.chunk_decompress_us" (1000. *. Spans.mean_ms agg "wire.chunk_decompress");
  Layers.set layers "gc.major_words_per_op" ((gc1.Gc.major_words -. gc0.Gc.major_words) /. ops);
  let ratio codec =
    let sum c = Array.fold_left (fun a p -> a + List.assoc c p.sizes) 0 progs in
    float_of_int (sum codec) /. float_of_int (sum "native")
  in
  let overhead =
    Hashtbl.fold (fun _ o a -> a +. o) overhead25 0. /. float_of_int (Hashtbl.length overhead25)
  in
  let e2e =
    [ Loop.metric "ops_per_s" "1/s" (Loop.ops_per_s res);
      Loop.metric "op_p50_ms" "ms" (Loop.percentile res "vm" 0.5);
      Loop.metric "bytes_per_op" "B" (float_of_int !det_loaded /. float_of_int !det_ops);
      Loop.metric "wire_size_ratio" "ratio" (ratio "wire");
      Loop.metric "brisc_size_ratio" "ratio" (ratio "brisc");
      Loop.metric "chunked_size_ratio" "ratio" (ratio "chunked-wire") ]
  in
  let extra =
    [ Loop.metric "run_p50_ms" "ms" (Loop.percentile res "vm" 0.5);
      Loop.metric "brisc_run_p50_ms" "ms" (Loop.percentile res "brisc" 0.5);
      Loop.metric "paged_overhead" "ratio" overhead;
      Loop.metric "faults_per_run" "count" (float_of_int !faults /. float_of_int (max 1 !det_vm));
      Loop.metric "vm_runs" "count" (float_of_int (Loop.count res "vm"));
      Loop.metric "brisc_runs" "count" (float_of_int (Loop.count res "brisc")) ]
  in
  (res, e2e, extra, layers, [])
