(* References for output checks, computed from the published IR with
   the compiler and the native simulator, never with the codec under
   test:
   - whole images of the wire family (and delta) must decode to the
     program's printed IR;
   - native-image codecs must decode to the native image the compiler
     emits;
   - BRISC containers must run, in place, to the native simulator's
     output;
   - a session chunk must decode to that function's printed IR. *)

type prog = {
  ir : Ir.Tree.program;
  input : string;
  printed : string;
  native : string;
  output : string;  (* Native.Sim output on [input] *)
  funcs : (string, string) Hashtbl.t;  (* function name -> printed IR *)
}

let of_ir ~input ir =
  let np = Native.Compile.compile_program (Vm.Codegen.gen_program ir) in
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun f -> Hashtbl.replace funcs f.Ir.Tree.fname (Ir.Printer.func_to_string f))
    ir.Ir.Tree.funcs;
  {
    ir;
    input;
    printed = Ir.Printer.program_to_string ir;
    native = Native.Mach.encode_program np;
    output = (Native.Sim.run ~input np).Native.Sim.output;
    funcs;
  }

type family = Printed_ir | Native_image | Runs_in_place

let family codec =
  match codec with
  | "wire" | "wire+range" | "wire+range-opt" | "wire+shared" | "delta" ->
    Some Printed_ir
  | "native" | "gzip+native" | "deflate" | "deflate-opt" -> Some Native_image
  | "brisc" | "brisc+shared" -> Some Runs_in_place
  | _ -> None

(* Does [decoded] (a codec's canonical expansion) match the reference? *)
let matches r codec decoded =
  match family codec with
  | Some Printed_ir -> decoded = r.printed
  | Some Native_image -> decoded = r.native
  | Some Runs_in_place -> (
    match Brisc.of_bytes decoded with
    | Ok img -> (
      try (Brisc.Interp.run ~input:r.input img).Brisc.Interp.output = r.output
      with _ -> false)
    | Error _ -> false)
  | None -> false

(* Verified artifacts, by (codec, context, bytes digest): identical
   bytes decode identically, so each distinct served artifact is
   decoded and compared once. *)
type memo = (string, bool) Hashtbl.t

let memo () : memo = Hashtbl.create 64

let decode ?ctx codec bytes =
  Codec.decode ?ctx (Codec.find_exn codec).Codec.codec bytes

let check_artifact (memo : memo) r ~codec ?ctx bytes =
  let key =
    String.concat "|"
      [ codec; (match ctx with Some c -> Codec.Context.digest c | None -> "");
        Digest.string bytes ]
  in
  match Hashtbl.find_opt memo key with
  | Some ok -> ok
  | None ->
    let ok =
      match decode ?ctx codec bytes with
      | Ok (decoded, _) -> matches r codec decoded
      | Error _ -> false
    in
    Hashtbl.replace memo key ok;
    ok

(* A chunk is a single-function wire image. *)
let decode_chunk bytes =
  match Wire.decompress bytes with
  | Ok { Ir.Tree.funcs = [ f ]; _ } -> Some f
  | Ok _ | Error _ -> None

let check_chunk (memo : memo) r name bytes =
  let key = "chunk|" ^ name ^ "|" ^ Digest.string bytes in
  match Hashtbl.find_opt memo key with
  | Some ok -> ok
  | None ->
    let ok =
      match decode_chunk bytes with
      | Some f ->
        f.Ir.Tree.fname = name
        && Some (Ir.Printer.func_to_string f) = Hashtbl.find_opt r.funcs name
      | None -> false
    in
    Hashtbl.replace memo key ok;
    ok
