type field = Freg of Isa.reg | Fimm of int | Flab of string | Fsym of string

let fields (i : Isa.instr) =
  match i with
  | Isa.Ld (_, rd, imm, rs) -> [ Freg rd; Fimm imm; Freg rs ]
  | Isa.St (_, rs2, imm, rs1) -> [ Freg rs2; Fimm imm; Freg rs1 ]
  | Isa.Ldx (_, rd, rs) -> [ Freg rd; Freg rs ]
  | Isa.Stx (_, rs2, rs1) -> [ Freg rs2; Freg rs1 ]
  | Isa.Li (rd, imm) -> [ Freg rd; Fimm imm ]
  | Isa.La (rd, s) -> [ Freg rd; Fsym s ]
  | Isa.Mov (rd, rs) -> [ Freg rd; Freg rs ]
  | Isa.Alu (_, rd, rs1, rs2) -> [ Freg rd; Freg rs1; Freg rs2 ]
  | Isa.Alui (_, rd, rs1, imm) -> [ Freg rd; Freg rs1; Fimm imm ]
  | Isa.Neg (rd, rs) | Isa.Not (rd, rs) | Isa.Sext (_, rd, rs) ->
    [ Freg rd; Freg rs ]
  | Isa.Br (_, rs1, rs2, lbl) -> [ Freg rs1; Freg rs2; Flab lbl ]
  | Isa.Bri (_, rs1, imm, lbl) -> [ Freg rs1; Fimm imm; Flab lbl ]
  | Isa.Jmp lbl -> [ Flab lbl ]
  | Isa.Call s -> [ Fsym s ]
  | Isa.Callr r -> [ Freg r ]
  | Isa.Rjr -> []
  | Isa.Enter k -> [ Freg Isa.sp; Freg Isa.sp; Fimm k ]
  | Isa.Exit k -> [ Freg Isa.sp; Freg Isa.sp; Fimm k ]
  | Isa.Spill (r, off) -> [ Freg r; Fimm off; Freg Isa.sp ]
  | Isa.Reload (r, off) -> [ Freg r; Fimm off; Freg Isa.sp ]
  | Isa.Label _ -> []

let arity_error () = invalid_arg "Encode.rebuild: field list mismatch"

let reg = function Freg r -> r | _ -> arity_error ()
let imm = function Fimm v -> v | _ -> arity_error ()
let lab = function Flab l -> l | _ -> arity_error ()
let sym = function Fsym s -> s | _ -> arity_error ()

let rebuild (i : Isa.instr) fs : Isa.instr =
  match (i, fs) with
  | Isa.Ld (w, _, _, _), [ a; b; c ] -> Isa.Ld (w, reg a, imm b, reg c)
  | Isa.St (w, _, _, _), [ a; b; c ] -> Isa.St (w, reg a, imm b, reg c)
  | Isa.Ldx (w, _, _), [ a; b ] -> Isa.Ldx (w, reg a, reg b)
  | Isa.Stx (w, _, _), [ a; b ] -> Isa.Stx (w, reg a, reg b)
  | Isa.Li (_, _), [ a; b ] -> Isa.Li (reg a, imm b)
  | Isa.La (_, _), [ a; b ] -> Isa.La (reg a, sym b)
  | Isa.Mov (_, _), [ a; b ] -> Isa.Mov (reg a, reg b)
  | Isa.Alu (op, _, _, _), [ a; b; c ] -> Isa.Alu (op, reg a, reg b, reg c)
  | Isa.Alui (op, _, _, _), [ a; b; c ] -> Isa.Alui (op, reg a, reg b, imm c)
  | Isa.Neg (_, _), [ a; b ] -> Isa.Neg (reg a, reg b)
  | Isa.Not (_, _), [ a; b ] -> Isa.Not (reg a, reg b)
  | Isa.Sext (w, _, _), [ a; b ] -> Isa.Sext (w, reg a, reg b)
  | Isa.Br (rel, _, _, _), [ a; b; c ] -> Isa.Br (rel, reg a, reg b, lab c)
  | Isa.Bri (rel, _, _, _), [ a; b; c ] -> Isa.Bri (rel, reg a, imm b, lab c)
  | Isa.Jmp _, [ a ] -> Isa.Jmp (lab a)
  | Isa.Call _, [ a ] -> Isa.Call (sym a)
  | Isa.Callr _, [ a ] -> Isa.Callr (reg a)
  | Isa.Rjr, [] -> Isa.Rjr
  | Isa.Enter _, [ _; _; c ] -> Isa.Enter (imm c)
  | Isa.Exit _, [ _; _; c ] -> Isa.Exit (imm c)
  | Isa.Spill (_, _), [ a; b; _ ] -> Isa.Spill (reg a, imm b)
  | Isa.Reload (_, _), [ a; b; _ ] -> Isa.Reload (reg a, imm b)
  | Isa.Label l, [] -> Isa.Label l
  | _ -> arity_error ()

let base_key (i : Isa.instr) =
  match i with
  | Isa.Ld (w, _, _, _) -> "ld.i" ^ Isa.width_name w
  | Isa.St (w, _, _, _) -> "st.i" ^ Isa.width_name w
  | Isa.Ldx (w, _, _) -> "ldx.i" ^ Isa.width_name w
  | Isa.Stx (w, _, _) -> "stx.i" ^ Isa.width_name w
  | Isa.Li _ -> "li"
  | Isa.La _ -> "la"
  | Isa.Mov _ -> "mov.i"
  | Isa.Alu (op, _, _, _) -> Isa.aluop_name op ^ ".i"
  | Isa.Alui (op, _, _, _) -> Isa.aluop_name op ^ ".i/imm"
  | Isa.Neg _ -> "neg.i"
  | Isa.Not _ -> "not.i"
  | Isa.Sext (w, _, _) -> "sext." ^ Isa.width_name w
  | Isa.Br (rel, _, _, _) -> Isa.relop_name rel ^ ".i"
  | Isa.Bri (rel, _, _, _) -> Isa.relop_name rel ^ ".i/imm"
  | Isa.Jmp _ -> "jmp"
  | Isa.Call _ -> "call"
  | Isa.Callr _ -> "callr"
  | Isa.Rjr -> "rjr"
  | Isa.Enter _ -> "enter"
  | Isa.Exit _ -> "exit"
  | Isa.Spill _ -> "spill.i"
  | Isa.Reload _ -> "reload.i"
  | Isa.Label _ -> "label"

let imm_bytes v = if v >= -128 && v <= 127 then 1 else if v >= -32768 && v <= 32767 then 2 else 4

let field_bits = function
  | Freg _ -> 4
  | Fimm v -> 8 * imm_bytes v
  | Flab _ | Fsym _ -> 8

(* 1 opcode byte, register nibbles packed two to a byte, then one byte
   per label/symbol field and [imm_bytes] per immediate — the byte
   count of [fields i], computed without building the field list *)
let encoded_size (i : Isa.instr) =
  let size ~regs ~other = 1 + ((regs + 1) / 2) + other in
  match i with
  | Isa.Label _ -> 0
  | Isa.Ld (_, _, imm, _) | Isa.St (_, _, imm, _) ->
    size ~regs:2 ~other:(imm_bytes imm)
  | Isa.Ldx _ | Isa.Stx _ | Isa.Mov _ | Isa.Neg _ | Isa.Not _ | Isa.Sext _ ->
    size ~regs:2 ~other:0
  | Isa.Li (_, imm) -> size ~regs:1 ~other:(imm_bytes imm)
  | Isa.La _ -> size ~regs:1 ~other:1
  | Isa.Alu _ -> size ~regs:3 ~other:0
  | Isa.Alui (_, _, _, imm) -> size ~regs:2 ~other:(imm_bytes imm)
  | Isa.Br _ -> size ~regs:2 ~other:1
  | Isa.Bri (_, _, imm, _) -> size ~regs:1 ~other:(imm_bytes imm + 1)
  | Isa.Jmp _ | Isa.Call _ -> size ~regs:0 ~other:1
  | Isa.Callr _ -> size ~regs:1 ~other:0
  | Isa.Rjr -> size ~regs:0 ~other:0
  | Isa.Enter k | Isa.Exit k -> size ~regs:2 ~other:(imm_bytes k)
  | Isa.Spill (_, off) | Isa.Reload (_, off) ->
    size ~regs:2 ~other:(imm_bytes off)

let func_size f =
  let rec go acc = function
    | [] -> acc
    | i :: rest -> go (acc + encoded_size i) rest
  in
  go 0 f.Isa.code

(* The original field-list accounting, kept as the oracle [encoded_size]
   and [func_size] are differential-tested against. *)
module Reference = struct
  let encoded_size i =
    match i with
    | Isa.Label _ -> 0
    | _ ->
      let fs = fields i in
      let reg_nibbles =
        List.length
          (List.filter (fun f -> match f with Freg _ -> true | _ -> false) fs)
      in
      let other_bytes =
        List.fold_left
          (fun acc f ->
            match f with
            | Freg _ -> acc
            | Fimm v -> acc + imm_bytes v
            | Flab _ | Fsym _ -> acc + 1)
          0 fs
      in
      1 + ((reg_nibbles + 1) / 2) + other_bytes

  let func_size f =
    List.fold_left (fun acc i -> acc + encoded_size i) 0 f.Isa.code
end

let program_size p = List.fold_left (fun acc f -> acc + func_size f) 0 p.Isa.funcs

(* ---- full binary image ----

   The binary image assigns numeric opcodes dynamically is not an option:
   the decoder must agree. We give every instruction shape a fixed opcode
   byte here. Opcodes also select immediate widths: for each Fimm field,
   two tag bits (1/2/4 bytes) are packed into a per-instruction "width
   byte" emitted after the opcode only when the shape has immediates. *)

let shape_code (i : Isa.instr) =
  match i with
  | Isa.Ld (Isa.B, _, _, _) -> 0
  | Isa.Ld (Isa.H, _, _, _) -> 1
  | Isa.Ld (Isa.W, _, _, _) -> 2
  | Isa.St (Isa.B, _, _, _) -> 3
  | Isa.St (Isa.H, _, _, _) -> 4
  | Isa.St (Isa.W, _, _, _) -> 5
  | Isa.Ldx (Isa.B, _, _) -> 6
  | Isa.Ldx (Isa.H, _, _) -> 7
  | Isa.Ldx (Isa.W, _, _) -> 8
  | Isa.Stx (Isa.B, _, _) -> 9
  | Isa.Stx (Isa.H, _, _) -> 10
  | Isa.Stx (Isa.W, _, _) -> 11
  | Isa.Li _ -> 12
  | Isa.Mov _ -> 13
  | Isa.Alu (op, _, _, _) -> (
    14
    + match op with
      | Isa.Add -> 0 | Isa.Sub -> 1 | Isa.Mul -> 2 | Isa.Div -> 3
      | Isa.Mod -> 4 | Isa.And -> 5 | Isa.Or -> 6 | Isa.Xor -> 7
      | Isa.Shl -> 8 | Isa.Shr -> 9)
  | Isa.Alui (op, _, _, _) -> (
    24
    + match op with
      | Isa.Add -> 0 | Isa.Sub -> 1 | Isa.Mul -> 2 | Isa.Div -> 3
      | Isa.Mod -> 4 | Isa.And -> 5 | Isa.Or -> 6 | Isa.Xor -> 7
      | Isa.Shl -> 8 | Isa.Shr -> 9)
  | Isa.Neg _ -> 34
  | Isa.Not _ -> 35
  | Isa.Sext (Isa.B, _, _) -> 36
  | Isa.Sext (Isa.H, _, _) -> 37
  | Isa.Sext (Isa.W, _, _) -> 38
  | Isa.Br (rel, _, _, _) -> (
    39
    + match rel with
      | Isa.Eq -> 0 | Isa.Ne -> 1 | Isa.Lt -> 2 | Isa.Le -> 3
      | Isa.Gt -> 4 | Isa.Ge -> 5)
  | Isa.Bri (rel, _, _, _) -> (
    45
    + match rel with
      | Isa.Eq -> 0 | Isa.Ne -> 1 | Isa.Lt -> 2 | Isa.Le -> 3
      | Isa.Gt -> 4 | Isa.Ge -> 5)
  | Isa.Jmp _ -> 51
  | Isa.Call _ -> 52
  | Isa.Callr _ -> 53
  | Isa.Rjr -> 54
  | Isa.Enter _ -> 55
  | Isa.Exit _ -> 56
  | Isa.Spill _ -> 57
  | Isa.Reload _ -> 58
  | Isa.La _ -> 60
  | Isa.Label _ -> 59

let template_of_code code : Isa.instr =
  let alu n = [| Isa.Add; Isa.Sub; Isa.Mul; Isa.Div; Isa.Mod; Isa.And; Isa.Or; Isa.Xor; Isa.Shl; Isa.Shr |].(n) in
  let rel n = [| Isa.Eq; Isa.Ne; Isa.Lt; Isa.Le; Isa.Gt; Isa.Ge |].(n) in
  if code <= 2 then Isa.Ld ([| Isa.B; Isa.H; Isa.W |].(code), 0, 0, 0)
  else if code <= 5 then Isa.St ([| Isa.B; Isa.H; Isa.W |].(code - 3), 0, 0, 0)
  else if code <= 8 then Isa.Ldx ([| Isa.B; Isa.H; Isa.W |].(code - 6), 0, 0)
  else if code <= 11 then Isa.Stx ([| Isa.B; Isa.H; Isa.W |].(code - 9), 0, 0)
  else if code = 12 then Isa.Li (0, 0)
  else if code = 13 then Isa.Mov (0, 0)
  else if code <= 23 then Isa.Alu (alu (code - 14), 0, 0, 0)
  else if code <= 33 then Isa.Alui (alu (code - 24), 0, 0, 0)
  else if code = 34 then Isa.Neg (0, 0)
  else if code = 35 then Isa.Not (0, 0)
  else if code <= 38 then Isa.Sext ([| Isa.B; Isa.H; Isa.W |].(code - 36), 0, 0)
  else if code <= 44 then Isa.Br (rel (code - 39), 0, 0, "")
  else if code <= 50 then Isa.Bri (rel (code - 45), 0, 0, "")
  else if code = 51 then Isa.Jmp ""
  else if code = 52 then Isa.Call ""
  else if code = 53 then Isa.Callr 0
  else if code = 54 then Isa.Rjr
  else if code = 55 then Isa.Enter 0
  else if code = 56 then Isa.Exit 0
  else if code = 57 then Isa.Spill (0, 0)
  else if code = 58 then Isa.Reload (0, 0)
  else if code = 59 then Isa.Label ""
  else if code = 60 then Isa.La (0, "")
  else
    Support.Decode_error.fail ~decoder:"vm-encode"
      ~kind:Support.Decode_error.Bad_value
      (Printf.sprintf "bad opcode %d" code)

let encode_program (p : Isa.vprogram) =
  let buf = Buffer.create 4096 in
  let u v = Support.Util.uleb128 buf v in
  let s_ v = Support.Util.sleb_of_int buf v in
  let str s =
    u (String.length s);
    Buffer.add_string buf s
  in
  (* symbol table: all global and function names + builtins referenced *)
  let syms = Hashtbl.create 64 in
  let sym_list = ref [] in
  let intern name =
    match Hashtbl.find_opt syms name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length syms in
      Hashtbl.add syms name i;
      sym_list := name :: !sym_list;
      i
  in
  List.iter (fun (n, _, _) -> ignore (intern n)) p.globals;
  List.iter (fun f -> ignore (intern f.Isa.name)) p.funcs;
  List.iter
    (fun f ->
      List.iter
        (fun i ->
          List.iter
            (fun fld ->
              match fld with Fsym s -> ignore (intern s) | _ -> ())
            (fields i))
        f.Isa.code)
    p.funcs;
  let symbols = List.rev !sym_list in
  u (List.length symbols);
  List.iter str symbols;
  (* globals *)
  u (List.length p.globals);
  List.iter
    (fun (n, sz, init) ->
      u (Hashtbl.find syms n);
      u sz;
      match init with
      | None -> u 0
      | Some bytes ->
        u (List.length bytes + 1);
        List.iter (fun b -> Buffer.add_char buf (Char.chr (b land 0xff))) bytes)
    p.globals;
  (* functions *)
  u (List.length p.funcs);
  List.iter
    (fun f ->
      u (Hashtbl.find syms f.Isa.name);
      let labels = Isa.defined_labels f in
      let lbl_idx = Hashtbl.create 8 in
      List.iteri (fun i l -> Hashtbl.add lbl_idx l i) labels;
      u (List.length labels);
      List.iter str labels;
      u (List.length f.Isa.code);
      List.iter
        (fun i ->
          Buffer.add_char buf (Char.chr (shape_code i));
          (match i with
          | Isa.Label l -> u (Hashtbl.find lbl_idx l)
          | _ -> ());
          let fs = fields i in
          (* registers as one byte each in the image (simple, decodable);
             the *size accounting* uses nibbles via encoded_size *)
          List.iter
            (fun fld ->
              match fld with
              | Freg r -> Buffer.add_char buf (Char.chr r)
              | Fimm v -> s_ v
              | Flab l -> u (Hashtbl.find lbl_idx l)
              | Fsym s -> u (Hashtbl.find syms s))
            fs)
        f.Isa.code)
    p.funcs;
  Buffer.contents buf

let decode_program_exn img =
  let pos = ref 0 in
  let fail kind msg =
    Support.Decode_error.fail ~decoder:"vm-encode" ~kind ~pos:!pos msg
  in
  (* every counted element costs at least one input byte; validate before
     any proportional allocation *)
  let check_count n what =
    if n < 0 || n > String.length img - !pos then
      fail Support.Decode_error.Limit
        (Printf.sprintf "%s count %d exceeds remaining %d bytes" what n
           (String.length img - !pos))
  in
  let u () = Support.Util.read_uleb128 img pos in
  let s_ () = Support.Util.read_sleb img pos in
  let str () =
    let n = u () in
    if n < 0 || !pos + n > String.length img then
      fail Support.Decode_error.Truncated "truncated string";
    let s = String.sub img !pos n in
    pos := !pos + n;
    s
  in
  let byte () =
    if !pos >= String.length img then
      fail Support.Decode_error.Truncated "truncated input";
    let b = Char.code img.[!pos] in
    incr pos;
    b
  in
  let index (table : string array) what =
    let i = u () in
    if i < 0 || i >= Array.length table then
      fail Support.Decode_error.Bad_value
        (Printf.sprintf "%s index %d outside table of %d" what i
           (Array.length table));
    table.(i)
  in
  let nsym = u () in
  check_count nsym "symbol";
  let symbols = Array.init nsym (fun _ -> str ()) in
  let nglob = u () in
  check_count nglob "global";
  let globals =
    List.init nglob (fun _ ->
        let n = index symbols "symbol" in
        let sz = u () in
        let initlen = u () in
        if initlen > 0 then check_count (initlen - 1) "global initializer";
        let init =
          if initlen = 0 then None
          else Some (List.init (initlen - 1) (fun _ -> byte ()))
        in
        (n, sz, init))
  in
  let nfun = u () in
  check_count nfun "function";
  let funcs =
    List.init nfun (fun _ ->
        let name = index symbols "symbol" in
        let nlbl = u () in
        check_count nlbl "label";
        let labels = Array.init nlbl (fun _ -> str ()) in
        let ninstr = u () in
        check_count ninstr "instruction";
        let code =
          List.init ninstr (fun _ ->
              let sc = byte () in
              let template = template_of_code sc in
              match template with
              | Isa.Label _ -> Isa.Label (index labels "label")
              | _ ->
                let fs =
                  List.map
                    (fun fld ->
                      match fld with
                      | Freg _ -> Freg (byte ())
                      | Fimm _ -> Fimm (s_ ())
                      | Flab _ -> Flab (index labels "label")
                      | Fsym _ -> Fsym (index symbols "symbol"))
                    (fields template)
                in
                rebuild template fs)
        in
        (* referential integrity: every branch/label field must name a
           label actually defined by a [Label] pseudo-instruction in this
           function; a dangling reference would be unencodable (and
           unrunnable), so the decoder rejects it *)
        let defined = Hashtbl.create 8 in
        List.iter
          (fun i ->
            match i with
            | Isa.Label l -> Hashtbl.replace defined l ()
            | _ -> ())
          code;
        List.iter
          (fun i ->
            match i with
            | Isa.Label _ -> ()
            | _ ->
              List.iter
                (fun fld ->
                  match fld with
                  | Flab l when not (Hashtbl.mem defined l) ->
                    fail Support.Decode_error.Inconsistent
                      (Printf.sprintf "branch to undefined label %S in %s" l
                         name)
                  | _ -> ())
                (fields i))
          code;
        { Isa.name; code })
  in
  if !pos <> String.length img then
    fail Support.Decode_error.Inconsistent "trailing bytes after program";
  { Isa.globals; funcs }

let decode_program img =
  Support.Decode_error.guard ~decoder:"vm-encode" (fun () ->
      decode_program_exn img)
