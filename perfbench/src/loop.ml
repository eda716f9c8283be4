(* The closed loop shared by the workloads: one client, one op at a
   time, ops taken block by block from a list drawn before timing
   starts. Only the op itself is timed; its output check runs after the
   clock stops. *)

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

type outcome = {
  cls : string;          (* op class, for per-class latency *)
  check : unit -> bool;  (* output check, run untimed *)
}

type result = {
  attempted : int;
  failed : int;
  op_s : float;   (* summed op time *)
  blocks : int;   (* whole blocks run *)
  block_s : float array;  (* op time of each block *)
  speed : float array;
      (* per block: reference unit time / unit time around the block *)
  lat_ms : (string, (float * int) list) Hashtbl.t;  (* class -> (ms, block) *)
}

(* Run whole blocks until [seconds] of op time have passed and at least
   [min_blocks] blocks are done. Block [b] is [blocks.(b mod n)]. The
   calibration unit runs before the first block and after each. *)
let run ~calib:unit_ ~seconds ~min_blocks ~(blocks : 'op array array)
    (exec : block:int -> id:int -> 'op -> outcome) =
  let attempted = ref 0 and failed = ref 0 and op_s = ref 0. in
  let lat_ms = Hashtbl.create 8 in
  let b = ref 0 and block_s = ref [] and speed = ref [] in
  let calib = ref (Calib.time unit_) in
  while !b < min_blocks || !op_s < seconds do
    let s0 = !op_s in
    Array.iter
      (fun op ->
        let id = !attempted in
        incr attempted;
        Spans.set_op id;
        let t0 = Unix.gettimeofday () in
        let r = try Ok (Spans.span "op" (fun () -> exec ~block:!b ~id op)) with e -> Error e in
        let dt = Unix.gettimeofday () -. t0 in
        op_s := !op_s +. dt;
        match r with
        | Ok o ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt lat_ms o.cls) in
          Hashtbl.replace lat_ms o.cls ((dt *. 1000., !b) :: prev);
          let ok =
            try o.check ()
            with e ->
              Printf.eprintf "perfbench: check of op %d raised %s\n%!" id
                (Printexc.to_string e);
              false
          in
          if not ok then incr failed
        | Error e ->
          Printf.eprintf "perfbench: op %d raised %s\n%!" id
            (Printexc.to_string e);
          incr failed)
      blocks.(!b mod Array.length blocks);
    let after = Calib.time unit_ in
    block_s := (!op_s -. s0) :: !block_s;
    speed := (Calib.reference_s unit_ /. ((!calib +. after) /. 2.)) :: !speed;
    calib := after;
    incr b
  done;
  { attempted = !attempted; failed = !failed; op_s = !op_s; blocks = !b;
    block_s = Array.of_list (List.rev !block_s);
    speed = Array.of_list (List.rev !speed); lat_ms }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Latencies of one op class in ms at reference host speed, sorted. *)
let samples r cls =
  let a =
    Array.of_list
      (List.map
         (fun (ms, b) -> ms *. r.speed.(b))
         (Option.value ~default:[] (Hashtbl.find_opt r.lat_ms cls)))
  in
  Array.sort compare a;
  a

let percentile r cls p = Support.Quantile.percentile (samples r cls) p
let count r cls = Array.length (samples r cls)

(* Throughput of the median block: every block does the same work, and
   the median keeps a few seconds of a busier host from moving it. *)
let ops_per_s ?(raw = false) r =
  let per_block = float_of_int r.attempted /. float_of_int r.blocks in
  per_block
  /. median
       (Array.to_list
          (Array.mapi (fun b s -> if raw then s else s *. r.speed.(b)) r.block_s))

(* The seed's shuffle of one block: Fisher-Yates over splitmix64. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Support.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* How many blocks are drawn up front: more than any run of up to 60
   seconds gets through on any workload. *)
let drawn_blocks = 256

(* Integer quotas proportional to Zipf(1) popularity over [n] ranks,
   summing to [total] (largest remainder). *)
let zipf_quotas ~n ~total =
  let w = Array.init n (fun r -> 1. /. float_of_int (r + 1)) in
  let sum = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> x /. sum *. float_of_int total) w in
  let q = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let short = total - Array.fold_left ( + ) 0 q in
  let order = Array.init n (fun i -> i) in
  Array.stable_sort
    (fun i j -> compare (exact.(j) -. float_of_int q.(j)) (exact.(i) -. float_of_int q.(i)))
    order;
  for k = 0 to short - 1 do
    q.(order.(k)) <- q.(order.(k)) + 1
  done;
  q

(* Expand quotas into rank indices, most popular first. *)
let expand q = List.concat (List.mapi (fun r n -> List.init n (fun _ -> r)) (Array.to_list q))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = go () in
  close_in ic;
  float_of_int kb /. 1024.

(* Names allow letters, digits, '_', '.', '-': map anything else
   (e.g. the '+' of "mtf+huffman") to '_'. *)
let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> c
      | _ -> '_')
    s
