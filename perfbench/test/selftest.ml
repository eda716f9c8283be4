(* Determinism self-test of the benchmark: the same seed draws the same
   op list and yields the same deterministic metrics; another seed draws
   another op list. Each workload runs one block per run. *)

open Perfbench

let fails = ref 0

let expect what ok =
  if not ok then begin
    incr fails;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

let draws name draw =
  expect (name ^ ": same seed, same op list") (draw ~seed:7 = draw ~seed:7);
  expect (name ^ ": another seed, another op list") (draw ~seed:7 <> draw ~seed:8)

(* The metrics that must repeat exactly: bytes and size ratios. *)
let deterministic (ms : Loop.metric list) =
  List.filter_map
    (fun (m : Loop.metric) ->
      match m.Loop.name with
      | "bytes_per_op" | "wire_size_ratio" | "brisc_size_ratio" | "chunked_size_ratio" ->
        Some (m.Loop.name, m.Loop.value)
      | _ -> None)
    ms

let same_metrics name run =
  let (r1 : Loop.result), m1, errs1 = run () in
  let (r2 : Loop.result), m2, errs2 = run () in
  expect (name ^ ": every op checked out")
    (r1.Loop.failed = 0 && r2.Loop.failed = 0 && errs1 = [] && errs2 = []);
  expect (name ^ ": deterministic metrics repeat")
    (deterministic m1 = deterministic m2 && List.length (deterministic m1) = 4)

let one_block run = run ~traced:false ~seconds:0. ~min_blocks:1

let () =
  draws "serve-warm" Serve_warm.draw;
  draws "release-churn" Release_churn.draw;
  draws "paged-exec" Paged_exec.draw;
  let st = Serve_warm.setup () in
  let refs = Serve_warm.references st in
  same_metrics "serve-warm" (fun () ->
      let r, e2e, _, _, errs =
        one_block Serve_warm.run ~blocks:(Serve_warm.draw ~seed:3) st refs
      in
      (r, e2e, errs));
  same_metrics "release-churn" (fun () ->
      let r, e2e, _, _, errs =
        one_block Release_churn.run ~blocks:(Release_churn.draw ~seed:3)
          (Release_churn.setup ())
      in
      (r, e2e, errs));
  let progs = Paged_exec.setup () in
  let refs = Paged_exec.references progs in
  same_metrics "paged-exec" (fun () ->
      let r, e2e, _, _, errs =
        one_block Paged_exec.run ~blocks:(Paged_exec.draw ~seed:3) progs refs
      in
      (r, e2e, errs));
  if !fails > 0 then exit 1
