(* Host-speed calibration.

   The benchmark shares its host with other tenants, and whole stretches
   of a run (seconds to minutes) go 20-50% faster or slower with their
   load. Medians of raw wall times from runs in different stretches
   then spread wider than any useful bound. So a fixed unit of work,
   independent of the code under test, is timed before the first block
   and after every block (and around each set-up), and time-valued
   end-to-end metrics are reported at reference host speed: each
   block's times are scaled by [reference_s] / (the unit's time around
   that block). Raw values are printed beside them.

   The unit is built from two halves: random read-modify-writes over
   32 MB, which wait on memory as the allocation-heavy decoders of
   serve-warm do, and a branchy integer loop, which keeps the core busy
   as the interpreters of paged-exec do. A unit that stayed in cache
   did not follow the slow and fast stretches at all. The memory half
   alone followed serve-warm best (spread of the fetch p50 over 5 runs
   2.7%, against 13% with both halves) and the two halves together
   followed paged-exec best (6.4% against 12%). Its buffer is bytes,
   which the GC never scans, and it allocates nothing, so the code
   under test cannot change its cost through the heap. It corrects a
   slow stretch only in part: the workloads slow down more than the
   unit does. *)


let size = 32 * 1024 * 1024
let buf = Bytes.make size '\001'
let sink = ref 0

(* random read-modify-writes over the buffer *)
let memory () =
  let acc = ref 0 and x = ref 12345 in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land (size - 1) in
    Bytes.unsafe_set buf j (Char.unsafe_chr ((Char.code (Bytes.unsafe_get buf j) + 1) land 255));
    acc := !acc + Char.code (Bytes.unsafe_get buf ((j + 4096) land (size - 1)))
  done;
  sink := !sink + !acc

(* a branchy xorshift loop, as an interpreter's dispatch is *)
let compute () =
  let acc = ref 0 and x = ref 12345 in
  for i = 1 to 1_500_000 do
    x := (!x lxor (!x lsl 13)) land 0xFFFFFFFF;
    x := !x lxor (!x lsr 17);
    x := (!x lxor (!x lsl 5)) land 0xFFFFFFFF;
    match !x land 7 with
    | 0 -> acc := !acc + i
    | 1 -> acc := !acc - !x
    | 2 -> acc := !acc lxor !x
    | 3 -> acc := !acc + (!x lsr 3)
    | _ -> acc := !acc + 1
  done;
  sink := !sink + !acc

(* Which resource a workload waits on decides the unit that follows
   it: [Memory] is the memory half twice, [Mixed] both halves. *)
type unit_ = Memory | Mixed

(* Each unit's time on the reference host (2 vCPU at 2.0 GHz) at its
   usual load, so normalized figures read close to raw ones there. *)
let reference_s = function Memory -> 0.017 | Mixed -> 0.037

let work = function
  | Memory ->
    memory ();
    memory ()
  | Mixed ->
    memory ();
    compute ()

(* Seconds the unit takes now. *)
let time u =
  let t0 = Unix.gettimeofday () in
  work u;
  Unix.gettimeofday () -. t0

