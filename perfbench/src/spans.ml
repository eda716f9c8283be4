(* In-memory span recorder for the traced run.

   A span is (id, parent, op id, name, start, end). Spans nest through
   an explicit stack of open spans; a span's self time is its duration
   minus the durations of the spans opened inside it. Recording is off
   unless [enabled] is set, and then [span] costs one flag test, so the
   untraced run measures the same code path. Spans stay in memory until
   [write] dumps them at exit. *)

type span = {
  id : int;
  parent : int;  (* 0 = no parent *)
  op : int;      (* op id the span belongs to; -1 outside ops *)
  name : string;
  t0 : float;
  t1 : float;
}

let now = Unix.gettimeofday
let enabled = ref false
let recorded : span list ref = ref []  (* newest first *)
let next_id = ref 0
let open_ : int list ref = ref []
let cur_op = ref (-1)

let reset () =
  recorded := [];
  next_id := 0;
  open_ := [];
  cur_op := -1

let set_op i = cur_op := i

let span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_ with p :: _ -> p | [] -> 0 in
    open_ := id :: !open_;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      open_ := List.tl !open_;
      recorded := { id; parent; op = !cur_op; name; t0; t1 } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let all () = List.rev !recorded

type agg = { count : int; total_s : float; self_s : float }

(* Per-name count, total duration and self time. *)
let aggregate () =
  let spans = all () in
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_s s.parent) in
        Hashtbl.replace child_s s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_s s.id) in
      let a =
        Option.value ~default:{ count = 0; total_s = 0.; self_s = 0. }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { count = a.count + 1; total_s = a.total_s +. d; self_s = a.self_s +. self })
    spans;
  by_name

(* Mean duration of the spans called [name], in ms. *)
let mean_ms tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a when a.count > 0 -> 1000. *. a.total_s /. float_of_int a.count
  | _ -> 0.

(* One line per span: id, parent, op, name, start and end in µs from
   the earliest start. *)
let write path =
  let spans = all () in
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity spans in
  let oc = open_out path in
  output_string oc "id\tparent\top\tname\tstart_us\tend_us\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\n" s.id s.parent s.op s.name
        ((s.t0 -. base) *. 1e6) ((s.t1 -. base) *. 1e6))
    spans;
  close_out oc
