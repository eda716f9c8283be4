(* Unit and property tests for the support library. *)

let qcheck = QCheck_alcotest.to_alcotest

(* ---- Bitio ---- *)

let test_bit_roundtrip () =
  let w = Support.Bitio.Writer.create () in
  let bits = [ 1; 0; 1; 1; 0; 0; 1; 0; 1; 1; 1 ] in
  List.iter (Support.Bitio.Writer.put_bit w) bits;
  let r = Support.Bitio.Reader.of_bytes (Support.Bitio.Writer.contents w) in
  List.iter
    (fun b -> Alcotest.(check int) "bit" b (Support.Bitio.Reader.get_bit r))
    bits

let test_bits_lsb () =
  let w = Support.Bitio.Writer.create () in
  Support.Bitio.Writer.put_bits w 0b1101 4;
  Support.Bitio.Writer.put_bits w 0xAB 8;
  Support.Bitio.Writer.put_bits w 0x3FFF 14;
  let r = Support.Bitio.Reader.of_bytes (Support.Bitio.Writer.contents w) in
  Alcotest.(check int) "4 bits" 0b1101 (Support.Bitio.Reader.get_bits r 4);
  Alcotest.(check int) "8 bits" 0xAB (Support.Bitio.Reader.get_bits r 8);
  Alcotest.(check int) "14 bits" 0x3FFF (Support.Bitio.Reader.get_bits r 14)

let test_bits_msb () =
  let w = Support.Bitio.Writer.create () in
  Support.Bitio.Writer.put_bits_msb w 0b101 3;
  Support.Bitio.Writer.put_bits_msb w 0b1100 4;
  let r = Support.Bitio.Reader.of_bytes (Support.Bitio.Writer.contents w) in
  Alcotest.(check int) "3 bits msb" 0b101 (Support.Bitio.Reader.get_bits_msb r 3);
  Alcotest.(check int) "4 bits msb" 0b1100 (Support.Bitio.Reader.get_bits_msb r 4)

let test_byte_align () =
  let w = Support.Bitio.Writer.create () in
  Support.Bitio.Writer.put_bits w 0b1 1;
  Support.Bitio.Writer.align_byte w;
  Support.Bitio.Writer.put_byte w 0xCD;
  let r = Support.Bitio.Reader.of_bytes (Support.Bitio.Writer.contents w) in
  Alcotest.(check int) "bit" 1 (Support.Bitio.Reader.get_bit r);
  Support.Bitio.Reader.align_byte r;
  Alcotest.(check int) "byte" 0xCD (Support.Bitio.Reader.get_byte r)

let test_bit_length () =
  let w = Support.Bitio.Writer.create () in
  Alcotest.(check int) "empty" 0 (Support.Bitio.Writer.bit_length w);
  Support.Bitio.Writer.put_bits w 7 3;
  Alcotest.(check int) "3" 3 (Support.Bitio.Writer.bit_length w);
  Support.Bitio.Writer.put_byte w 1;
  Alcotest.(check int) "11" 11 (Support.Bitio.Writer.bit_length w)

let test_seek () =
  let w = Support.Bitio.Writer.create () in
  Support.Bitio.Writer.put_bits w 0xDEAD 16;
  let r = Support.Bitio.Reader.of_bytes (Support.Bitio.Writer.contents w) in
  Support.Bitio.Reader.seek_bit r 8;
  Alcotest.(check int) "high byte" 0xDE (Support.Bitio.Reader.get_bits r 8);
  Support.Bitio.Reader.seek_bit r 0;
  Alcotest.(check int) "low byte" 0xAD (Support.Bitio.Reader.get_bits r 8)

let test_reader_exhaustion () =
  let r = Support.Bitio.Reader.of_string "" in
  Alcotest.check_raises "empty read" (Failure "Bitio.Reader: out of bits")
    (fun () -> ignore (Support.Bitio.Reader.get_bit r))

(* The overflow window of the pre-fix [put_bits]: with up to 7 pending
   bits in the accumulator, an all-ones field of n in {48..56} shifts
   past OCaml's 63-bit int unless the writer splits the field. Every
   (pending, n) combination must round-trip with no dropped high bits. *)
let test_put_bits_wide_window () =
  for pending = 0 to 7 do
    for n = 48 to 56 do
      let w = Support.Bitio.Writer.create () in
      if pending > 0 then
        Support.Bitio.Writer.put_bits w ((1 lsl pending) - 1) pending;
      let v = (1 lsl n) - 1 in
      Support.Bitio.Writer.put_bits w v n;
      (* a trailing sentinel proves the bit cursor also stayed exact *)
      Support.Bitio.Writer.put_bits w 0b10110 5;
      let r = Support.Bitio.Reader.of_bytes (Support.Bitio.Writer.contents w) in
      if pending > 0 then
        Alcotest.(check int)
          (Printf.sprintf "pending %d" pending)
          ((1 lsl pending) - 1)
          (Support.Bitio.Reader.get_bits r pending);
      Alcotest.(check int) (Printf.sprintf "wide %d+%d" pending n) v
        (Support.Bitio.Reader.get_bits r n);
      Alcotest.(check int) "sentinel" 0b10110 (Support.Bitio.Reader.get_bits r 5)
    done
  done

let prop_put_bits_wide =
  QCheck.Test.make ~name:"put_bits wide fields with pending bits" ~count:300
    QCheck.(triple (int_range 0 7) (int_range 48 56) (int_bound max_int))
    (fun (pending, n, v) ->
      let v = v land ((1 lsl n) - 1) in
      let w = Support.Bitio.Writer.create () in
      Support.Bitio.Writer.put_bits w 0x55 pending;
      Support.Bitio.Writer.put_bits w v n;
      let r = Support.Bitio.Reader.of_bytes (Support.Bitio.Writer.contents w) in
      ignore (Support.Bitio.Reader.get_bits r pending);
      Support.Bitio.Reader.get_bits r n = v)

(* peek_bits/advance_bits must agree with get_bits over the same
   stream, and zero-fill — not fail — when the probe runs past the
   end (the table-driven Huffman decoder probes a full index width
   regardless of how many bits remain). *)
let prop_peek_advance_consistency =
  QCheck.Test.make ~name:"peek_bits+advance_bits = get_bits" ~count:300
    QCheck.(small_list (pair (int_bound 0xFFFF) (int_range 1 16)))
    (fun fields ->
      let w = Support.Bitio.Writer.create () in
      List.iter
        (fun (v, n) -> Support.Bitio.Writer.put_bits w (v land ((1 lsl n) - 1)) n)
        fields;
      let bytes = Support.Bitio.Writer.contents w in
      let r1 = Support.Bitio.Reader.of_bytes bytes in
      let r2 = Support.Bitio.Reader.of_bytes bytes in
      List.for_all
        (fun (_, n) ->
          let peeked = Support.Bitio.Reader.peek_bits r1 n in
          Support.Bitio.Reader.advance_bits r1 n;
          peeked = Support.Bitio.Reader.get_bits r2 n)
        fields)

(* a reader over a substring sees exactly what a reader over a copy of
   it sees: the same fields, the same zero fill past its end (not the
   bytes that follow it in the larger string), the same positions *)
let prop_substring_reader =
  QCheck.Test.make ~name:"of_substring = of_string (String.sub)" ~count:300
    QCheck.(
      triple (string_of_size (Gen.int_range 0 40)) (pair small_nat small_nat)
        (small_list (int_range 1 32)))
    (fun (s, (a, b), widths) ->
      let pos = if s = "" then 0 else a mod (String.length s + 1) in
      let len = if s = "" then 0 else b mod (String.length s - pos + 1) in
      let r1 = Support.Bitio.Reader.of_substring s ~pos ~len in
      let r2 = Support.Bitio.Reader.of_string (String.sub s pos len) in
      List.for_all
        (fun n ->
          let p1 = Support.Bitio.Reader.peek_bits r1 n in
          let p2 = Support.Bitio.Reader.peek_bits r2 n in
          let g r = try Some (Support.Bitio.Reader.get_bits r n) with Failure _ -> None in
          p1 = p2
          && g r1 = g r2
          && Support.Bitio.Reader.bit_position r1 = Support.Bitio.Reader.bit_position r2
          && Support.Bitio.Reader.bits_remaining r1
             = Support.Bitio.Reader.bits_remaining r2)
        widths)

(* the bulk field read against one [get_bits] per field, including
   counts that run out of input part-way *)
let prop_get_fields =
  QCheck.Test.make ~name:"get_fields = repeated get_bits" ~count:300
    QCheck.(
      quad (string_of_size (Gen.int_range 0 24)) (int_range 0 7)
        (int_range 1 16) (int_range 0 40))
    (fun (s, skip, width, count) ->
      let r1 = Support.Bitio.Reader.of_string s in
      let r2 = Support.Bitio.Reader.of_string s in
      let skip = min skip (8 * String.length s) in
      ignore (Support.Bitio.Reader.get_bits r1 skip);
      ignore (Support.Bitio.Reader.get_bits r2 skip);
      let bulk =
        try Some (Support.Bitio.Reader.get_fields r1 ~count ~width)
        with Failure _ -> None
      in
      let one =
        try Some (Array.init count (fun _ -> Support.Bitio.Reader.get_bits r2 width))
        with Failure _ -> None
      in
      bulk = one
      && (bulk = None
         || Support.Bitio.Reader.bit_position r1
            = Support.Bitio.Reader.bit_position r2))

let test_peek_past_end () =
  let r = Support.Bitio.Reader.of_string "\xff" in
  (* 8 real bits (all ones) then zero fill *)
  Alcotest.(check int) "zero filled" 0xFF (Support.Bitio.Reader.peek_bits r 20);
  Support.Bitio.Reader.advance_bits r 8;
  Alcotest.(check int) "empty probe" 0 (Support.Bitio.Reader.peek_bits r 16);
  Alcotest.check_raises "advance past end"
    (Failure "Bitio.Reader: out of bits") (fun () ->
      Support.Bitio.Reader.advance_bits r 1)

let prop_bits_roundtrip =
  QCheck.Test.make ~name:"bitio roundtrip random fields" ~count:200
    QCheck.(small_list (pair (int_bound 0xFFFF) (int_range 1 16)))
    (fun fields ->
      let w = Support.Bitio.Writer.create () in
      List.iter
        (fun (v, n) -> Support.Bitio.Writer.put_bits w (v land ((1 lsl n) - 1)) n)
        fields;
      let r = Support.Bitio.Reader.of_bytes (Support.Bitio.Writer.contents w) in
      List.for_all
        (fun (v, n) ->
          Support.Bitio.Reader.get_bits r n = v land ((1 lsl n) - 1))
        fields)

(* ---- Heap ---- *)

let test_heap_order () =
  let h = Support.Heap.of_list ~cmp:compare [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  Alcotest.(check (list int)) "descending" [ 9; 6; 5; 4; 3; 2; 1; 1 ]
    (Support.Heap.to_sorted_list h)

let test_heap_empty () =
  let h = Support.Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Support.Heap.is_empty h);
  Alcotest.(check (option int)) "pop" None (Support.Heap.pop h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty")
    (fun () -> ignore (Support.Heap.pop_exn h))

let test_heap_peek () =
  let h = Support.Heap.of_list ~cmp:compare [ 2; 7; 3 ] in
  Alcotest.(check (option int)) "peek max" (Some 7) (Support.Heap.peek h);
  Alcotest.(check int) "len" 3 (Support.Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Support.Heap.of_list ~cmp:compare xs in
      Support.Heap.to_sorted_list h = List.sort (fun a b -> compare b a) xs)

(* with duplicate priorities and a tie-breaking key in the comparison
   (the shape Dict.build's benefit heap uses), the pop sequence is the
   full sorted order, independent of insertion order *)
let prop_heap_duplicate_priorities =
  QCheck.Test.make ~name:"heap pop order with duplicate priorities" ~count:200
    QCheck.(list (pair (int_bound 4) (int_bound 50)))
    (fun xs ->
      let cmp (p1, k1) (p2, k2) =
        if (p1 : int) <> p2 then compare p1 p2 else compare (k2 : int) k1
      in
      let drained l = Support.Heap.to_sorted_list (Support.Heap.of_list ~cmp l) in
      let expected = List.sort (fun a b -> cmp b a) xs in
      drained xs = expected && drained (List.rev xs) = expected)

(* ---- Pool ---- *)

let test_pool_in_order () =
  let p = Support.Pool.create ~domains:4 in
  let r = Support.Pool.run_list p (List.init 50 (fun i () -> i * i)) in
  Support.Pool.shutdown p;
  Alcotest.(check (list int)) "results in input order"
    (List.init 50 (fun i -> i * i))
    r

let test_pool_nested () =
  (* a task that itself fans out on the same pool must not deadlock *)
  let p = Support.Pool.create ~domains:2 in
  let expected =
    List.init 4 (fun i ->
        List.fold_left ( + ) 0 (List.init 5 (fun j -> (i * 5) + j)))
  in
  let r =
    Support.Pool.run_list p
      (List.init 4 (fun i () ->
           List.fold_left ( + ) 0
             (Support.Pool.run_list p
                (List.init 5 (fun j () -> (i * 5) + j)))))
  in
  Support.Pool.shutdown p;
  Alcotest.(check (list int)) "nested sums" expected r

let test_pool_exception () =
  let p = Support.Pool.create ~domains:3 in
  Alcotest.check_raises "first error re-raised" (Failure "boom") (fun () ->
      ignore
        (Support.Pool.run_list p
           [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]));
  Alcotest.(check (list int)) "pool survives a failing batch" [ 1; 2 ]
    (Support.Pool.run_list p [ (fun () -> 1); (fun () -> 2) ]);
  Support.Pool.shutdown p

let test_pool_sequential_degrade () =
  let p = Support.Pool.create ~domains:1 in
  Alcotest.(check int) "size floor" 1 (Support.Pool.size p);
  Alcotest.(check (list int)) "map" [ 0; 2; 4 ]
    (Support.Pool.map p (fun x -> 2 * x) [ 0; 1; 2 ]);
  Support.Pool.shutdown p;
  Alcotest.(check (list int)) "runs sequentially after shutdown" [ 5 ]
    (Support.Pool.run_list p [ (fun () -> 5) ])

(* the daemon's SIGINT/SIGTERM teardown path: shutdown must be
   idempotent, safe to race from several domains, and leave the pool
   usable (sequentially) for stragglers *)
let test_pool_shutdown_teardown () =
  let p = Support.Pool.create ~domains:3 in
  Alcotest.(check bool) "fresh pool not stopped" false
    (Support.Pool.is_stopped p);
  Alcotest.(check (list int)) "work completes" (List.init 16 (fun i -> i * 2))
    (Support.Pool.run_list p (List.init 16 (fun i () -> i * 2)));
  Support.Pool.shutdown p;
  Alcotest.(check bool) "stopped" true (Support.Pool.is_stopped p);
  Support.Pool.shutdown p;
  Alcotest.(check bool) "double shutdown is a no-op" true
    (Support.Pool.is_stopped p);
  let p2 = Support.Pool.create ~domains:3 in
  let shutters =
    List.init 3 (fun _ -> Domain.spawn (fun () -> Support.Pool.shutdown p2))
  in
  List.iter Domain.join shutters;
  Alcotest.(check bool) "concurrent shutdowns all settle" true
    (Support.Pool.is_stopped p2);
  Alcotest.(check (list int)) "late caller degrades to sequential" [ 9 ]
    (Support.Pool.run_list p2 [ (fun () -> 9) ])

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Support.Prng.create 42L and b = Support.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Support.Prng.int a 1000)
      (Support.Prng.int b 1000)
  done

let test_prng_differs_by_seed () =
  let a = Support.Prng.create 1L and b = Support.Prng.create 2L in
  let xs = List.init 20 (fun _ -> Support.Prng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Support.Prng.int b 1000000) in
  Alcotest.(check bool) "different" true (xs <> ys)

let prop_prng_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair int (int_range 1 10000))
    (fun (seed, bound) ->
      let t = Support.Prng.create (Int64.of_int seed) in
      let v = Support.Prng.int t bound in
      v >= 0 && v < bound)

let test_prng_weighted () =
  let t = Support.Prng.create 7L in
  for _ = 1 to 100 do
    let v = Support.Prng.weighted t [ (1, "a"); (0, "b"); (3, "c") ] in
    Alcotest.(check bool) "never b" true (v <> "b")
  done

let test_prng_float_range () =
  let t = Support.Prng.create 9L in
  for _ = 1 to 200 do
    let f = Support.Prng.float t in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

(* ---- Util ---- *)

let test_zigzag_cases () =
  List.iter
    (fun (n, z) ->
      Alcotest.(check int) (Printf.sprintf "zigzag %d" n) z (Support.Util.zigzag n))
    [ (0, 0); (-1, 1); (1, 2); (-2, 3); (2, 4) ]

let prop_zigzag_roundtrip =
  QCheck.Test.make ~name:"zigzag roundtrip" ~count:500 QCheck.int (fun n ->
      let n = n asr 1 in
      Support.Util.unzigzag (Support.Util.zigzag n) = n)

let prop_uleb_roundtrip =
  QCheck.Test.make ~name:"uleb128 roundtrip" ~count:500
    QCheck.(int_bound max_int)
    (fun n ->
      let b = Buffer.create 8 in
      Support.Util.uleb128 b n;
      let pos = ref 0 in
      Support.Util.read_uleb128 (Buffer.contents b) pos = n)

let prop_sleb_roundtrip =
  QCheck.Test.make ~name:"sleb roundtrip" ~count:500 QCheck.int (fun n ->
      let n = n asr 1 in
      let b = Buffer.create 8 in
      Support.Util.sleb_of_int b n;
      let pos = ref 0 in
      Support.Util.read_sleb (Buffer.contents b) pos = n)

let test_chunks () =
  Alcotest.(check (list (list int))) "chunks 3" [ [ 1; 2; 3 ]; [ 4; 5 ] ]
    (Support.Util.chunks 3 [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list (list int))) "chunks empty" [] (Support.Util.chunks 3 [])

let test_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Support.Util.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Support.Util.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take over" [ 1 ] (Support.Util.take 5 [ 1 ])

let test_human_bytes () =
  Alcotest.(check string) "bytes" "512 B" (Support.Util.human_bytes 512);
  Alcotest.(check string) "kb" "2.0 KB" (Support.Util.human_bytes 2048)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Support.Util.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0 (Support.Util.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Support.Util.mean [])

(* ---- Freq ---- *)

let test_freq_counts () =
  let f = Support.Freq.create () in
  List.iter (Support.Freq.add f) [ "a"; "b"; "a"; "a"; "c"; "b" ];
  Alcotest.(check int) "a" 3 (Support.Freq.count f "a");
  Alcotest.(check int) "total" 6 (Support.Freq.total f);
  Alcotest.(check int) "distinct" 3 (Support.Freq.distinct f);
  Alcotest.(check (list (pair string int)))
    "sorted" [ ("a", 3); ("b", 2); ("c", 1) ] (Support.Freq.to_list f)

let test_freq_entropy () =
  let f = Support.Freq.create () in
  Support.Freq.add_many f 0 8;
  Support.Freq.add_many f 1 8;
  Alcotest.(check (float 1e-9)) "1 bit" 1.0 (Support.Freq.entropy_bits f);
  let g = Support.Freq.create () in
  Support.Freq.add_many g 0 16;
  Alcotest.(check (float 1e-9)) "0 bits" 0.0 (Support.Freq.entropy_bits g)

(* ---- quantile ---- *)

(* An independent oracle for the floor-index quantile: sort the raw
   sample here (Quantile sorts its own copy) and take floor (p * (n-1)).
   Random samples of every size 1..60 must agree exactly — the
   estimator is deterministic, so the check is equality, not
   tolerance. *)
let quantile_oracle sample p =
  let a = Array.of_list sample in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min (n - 1) (int_of_float (p *. float_of_int (n - 1))))

let test_percentile_against_oracle () =
  let rng = Support.Prng.create 977L in
  for n = 1 to 60 do
    let sample =
      List.init n (fun _ -> float_of_int (Support.Prng.int rng 10_000) /. 7.0)
    in
    let b = Support.Quantile.bucket_of_ms sample in
    Alcotest.(check int) "count" n b.Support.Quantile.count;
    List.iter
      (fun (p, got, name) ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s of %d samples" name n)
          (quantile_oracle sample p) got)
      [ (0.50, b.Support.Quantile.p50_ms, "p50");
        (0.95, b.Support.Quantile.p95_ms, "p95");
        (0.99, b.Support.Quantile.p99_ms, "p99") ];
    let mx = List.fold_left max neg_infinity sample in
    Alcotest.(check (float 0.0)) "max" mx b.Support.Quantile.max_ms;
    (* percentiles are order statistics: always within [min, max] and
       monotone in p *)
    Alcotest.(check bool) "p50 <= p95 <= p99 <= max" true
      (b.Support.Quantile.p50_ms <= b.Support.Quantile.p95_ms
      && b.Support.Quantile.p95_ms <= b.Support.Quantile.p99_ms
      && b.Support.Quantile.p99_ms <= b.Support.Quantile.max_ms)
  done

let test_percentile_edge_cases () =
  (* empty: every field zero, no division by zero *)
  let e = Support.Quantile.bucket_of_ms [] in
  Alcotest.(check int) "empty count" 0 e.Support.Quantile.count;
  Alcotest.(check (float 0.0)) "empty p99" 0.0 e.Support.Quantile.p99_ms;
  Alcotest.(check (float 0.0)) "empty mean" 0.0 e.Support.Quantile.mean_ms;
  (* singleton: every percentile IS the sample *)
  let s = Support.Quantile.bucket_of_ms [ 3.5 ] in
  List.iter
    (fun v -> Alcotest.(check (float 0.0)) "singleton percentile" 3.5 v)
    [ s.Support.Quantile.p50_ms; s.Support.Quantile.p95_ms;
      s.Support.Quantile.p99_ms; s.Support.Quantile.max_ms;
      s.Support.Quantile.mean_ms ];
  (* two elements: floor-index puts p50 on the lower, p95/p99 stay on
     the lower too (floor (0.99 * 1) = 0) — max alone sees the upper *)
  let d = Support.Quantile.bucket_of_ms [ 9.0; 1.0 ] in
  Alcotest.(check (float 0.0)) "pair p50 = lower" 1.0 d.Support.Quantile.p50_ms;
  Alcotest.(check (float 0.0)) "pair p99 = lower (floor-index)" 1.0
    d.Support.Quantile.p99_ms;
  Alcotest.(check (float 0.0)) "pair max = upper" 9.0 d.Support.Quantile.max_ms;
  Alcotest.(check (float 1e-9)) "pair mean" 5.0 d.Support.Quantile.mean_ms;
  (* percentile itself clamps p = 1.0 to the last element *)
  Alcotest.(check (float 0.0)) "p=1.0 clamps to max" 7.0
    (Support.Quantile.percentile [| 2.0; 7.0 |] 1.0)

let () =
  Alcotest.run "support"
    [
      ( "bitio",
        [
          Alcotest.test_case "bit roundtrip" `Quick test_bit_roundtrip;
          Alcotest.test_case "lsb fields" `Quick test_bits_lsb;
          Alcotest.test_case "msb fields" `Quick test_bits_msb;
          Alcotest.test_case "byte alignment" `Quick test_byte_align;
          Alcotest.test_case "bit length" `Quick test_bit_length;
          Alcotest.test_case "seek" `Quick test_seek;
          Alcotest.test_case "exhaustion" `Quick test_reader_exhaustion;
          Alcotest.test_case "wide fields window" `Quick
            test_put_bits_wide_window;
          Alcotest.test_case "peek past end" `Quick test_peek_past_end;
          qcheck prop_bits_roundtrip;
          qcheck prop_put_bits_wide;
          qcheck prop_peek_advance_consistency;
          qcheck prop_substring_reader;
          qcheck prop_get_fields;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_order;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          qcheck prop_heap_sorts;
          qcheck prop_heap_duplicate_priorities;
        ] );
      ( "pool",
        [
          Alcotest.test_case "results in order" `Quick test_pool_in_order;
          Alcotest.test_case "nested fan-out" `Quick test_pool_nested;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "sequential degrade" `Quick
            test_pool_sequential_degrade;
          Alcotest.test_case "shutdown teardown" `Quick
            test_pool_shutdown_teardown;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed-sensitive" `Quick test_prng_differs_by_seed;
          Alcotest.test_case "weighted" `Quick test_prng_weighted;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          qcheck prop_prng_bounds;
        ] );
      ( "util",
        [
          Alcotest.test_case "zigzag cases" `Quick test_zigzag_cases;
          Alcotest.test_case "chunks" `Quick test_chunks;
          Alcotest.test_case "take/drop" `Quick test_take_drop;
          Alcotest.test_case "human bytes" `Quick test_human_bytes;
          Alcotest.test_case "mean/stddev" `Quick test_stats;
          qcheck prop_zigzag_roundtrip;
          qcheck prop_uleb_roundtrip;
          qcheck prop_sleb_roundtrip;
        ] );
      ( "freq",
        [
          Alcotest.test_case "counts" `Quick test_freq_counts;
          Alcotest.test_case "entropy" `Quick test_freq_entropy;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "percentiles vs quantile oracle" `Quick
            test_percentile_against_oracle;
          Alcotest.test_case "percentile edge cases" `Quick
            test_percentile_edge_cases;
        ] );
    ]
