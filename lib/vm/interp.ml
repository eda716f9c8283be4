exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type result = { exit_code : int; output : string; steps : int }

let data_base = Layout.data_base
let default_mem_size = 1 lsl 22 (* 4 MB *)

(* 32-bit two's-complement normalization *)
let norm v =
  let v = v land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let layout_globals = Layout.globals_table

let global_address p name =
  let tbl, _ = layout_globals p in
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None -> fail "unknown global %s" name

let func_address = Layout.func_address

type frame = { flat : Isa.instr array; label_of : (string, int) Hashtbl.t }

let prepare_func (f : Isa.vfunc) =
  let flat = Array.of_list f.Isa.code in
  let label_of = Hashtbl.create 8 in
  Array.iteri
    (fun i ins -> match ins with Isa.Label l -> Hashtbl.replace label_of l i | _ -> ())
    flat;
  { flat; label_of }

(* Code reaches the dispatch loop through [fetch], called once at entry
   and once per control transfer into a function (call, indirect call,
   return) — never per instruction. A fully-resident run's fetch is an
   array read; a demand-paged run's fetch goes through a Pager and may
   decompress. The executing frame is held locally between transfers,
   so a pager evicting the current function is safe: the next transfer
   back into it simply faults it in again. *)
type paged_code = {
  names : string array;
  globals : (string * int * int list option) list;
  fetch : int -> frame;
}

(* Return addresses pack (function index, resume instruction index) into
   one word a [Spill] can store as 32 bits: 2^30 marks a return address
   (apart from the halt sentinel), the function index takes bits 20-29
   and the instruction index bits 0-19. A program with more functions,
   or a function with more instructions, than those fields hold would
   return into the wrong code, so it traps instead: the function count
   at entry, the instruction count when a function is fetched. *)
let ra_func_bits = 10
let ra_instr_bits = 20
let max_funcs = 1 lsl ra_func_bits
let max_instrs = (1 lsl ra_instr_bits) - 1

(* one run on [mem], which must be all zero *)
let exec_code ~mem ~input ~fuel ~entry ~on_call ~on_label (code : paged_code)
    : result =
  let mem_size = Bytes.length mem in
  let globals, _data_end =
    layout_globals { Isa.globals = code.globals; funcs = [] }
  in
  (* initialize globals *)
  List.iter
    (fun (name, _, init) ->
      match init with
      | None -> ()
      | Some bytes ->
        let base = Hashtbl.find globals name in
        (* hostile images can declare globals past the end of memory;
           trap rather than let Bytes.set throw out of the engine *)
        if base < 0 || base + List.length bytes > mem_size then
          fail "global initializer for %s overflows memory" name;
        List.iteri
          (fun i b -> Bytes.set mem (base + i) (Char.chr (b land 0xff)))
          bytes)
    code.globals;
  let nfuncs = Array.length code.names in
  if nfuncs > max_funcs then
    fail "program has %d functions; return addresses hold at most %d" nfuncs
      max_funcs;
  let fidx_of_name = Hashtbl.create 32 in
  Array.iteri (fun i n -> Hashtbl.add fidx_of_name n i) code.names;
  let addr_of_sym name =
    match Hashtbl.find_opt fidx_of_name name with
    | Some i -> func_address i
    | None -> (
      match Hashtbl.find_opt globals name with
      | Some a -> a
      | None -> fail "unresolved symbol %s" name)
  in
  let fidx_of_addr a =
    if a mod 8 = 0 && a >= 8 && a / 8 - 1 < nfuncs then a / 8 - 1
    else fail "indirect call to non-function address %d" a
  in
  (* machine state *)
  let regs = Array.make Isa.num_regs 0 in
  regs.(Isa.sp) <- mem_size - 16;
  let halt_ra = -1 in
  regs.(Isa.ra) <- halt_ra;
  let output = Buffer.create 256 in
  let in_pos = ref 0 in
  let steps = ref 0 in
  (* memory access *)
  let check_addr a n =
    if a < 0 || a + n > mem_size then fail "memory access out of range: %d" a
  in
  let load w a =
    match w with
    | Isa.B ->
      check_addr a 1;
      let v = Char.code (Bytes.get mem a) in
      if v land 0x80 <> 0 then v - 0x100 else v
    | Isa.H ->
      check_addr a 2;
      let v = Char.code (Bytes.get mem a) lor (Char.code (Bytes.get mem (a + 1)) lsl 8) in
      if v land 0x8000 <> 0 then v - 0x10000 else v
    | Isa.W ->
      check_addr a 4;
      let v =
        Char.code (Bytes.get mem a)
        lor (Char.code (Bytes.get mem (a + 1)) lsl 8)
        lor (Char.code (Bytes.get mem (a + 2)) lsl 16)
        lor (Char.code (Bytes.get mem (a + 3)) lsl 24)
      in
      norm v
  in
  let store w a v =
    match w with
    | Isa.B ->
      check_addr a 1;
      Bytes.set mem a (Char.chr (v land 0xff))
    | Isa.H ->
      check_addr a 2;
      Bytes.set mem a (Char.chr (v land 0xff));
      Bytes.set mem (a + 1) (Char.chr ((v asr 8) land 0xff))
    | Isa.W ->
      check_addr a 4;
      Bytes.set mem a (Char.chr (v land 0xff));
      Bytes.set mem (a + 1) (Char.chr ((v asr 8) land 0xff));
      Bytes.set mem (a + 2) (Char.chr ((v asr 16) land 0xff));
      Bytes.set mem (a + 3) (Char.chr ((v asr 24) land 0xff))
  in
  let alu op a b =
    match op with
    | Isa.Add -> norm (a + b)
    | Isa.Sub -> norm (a - b)
    | Isa.Mul -> norm (a * b)
    | Isa.Div -> if b = 0 then fail "division by zero" else norm (a / b)
    | Isa.Mod -> if b = 0 then fail "modulo by zero" else norm (a mod b)
    | Isa.And -> norm (a land b)
    | Isa.Or -> norm (a lor b)
    | Isa.Xor -> norm (a lxor b)
    | Isa.Shl -> norm (a lsl (b land 31))
    | Isa.Shr -> norm (a asr (b land 31))
  in
  let builtin name =
    match name with
    | "putchar" ->
      Buffer.add_char output (Char.chr (regs.(0) land 0xff));
      regs.(0) <- regs.(0) land 0xff
    | "getchar" ->
      if !in_pos < String.length input then begin
        regs.(0) <- Char.code input.[!in_pos];
        incr in_pos
      end
      else regs.(0) <- -1
    | "print_int" ->
      Buffer.add_string output (string_of_int regs.(0));
      ()
    | "abort" -> fail "abort called"
    | _ -> fail "unknown builtin %s" name
  in
  (* call stack of (function idx, return instr idx) encoded in ra as
     2^30 + fidx * 2^20 + iidx, the 2^30 bit telling it from halt; the
     entry and [fetch] checks keep both fields in range *)
  let encode_ra fidx iidx =
    (1 lsl 30) lor (fidx lsl ra_instr_bits) lor iidx
  in
  let decode_ra v =
    if v < 0 || v land (1 lsl 30) = 0 then None
    else
      Some ((v lsr ra_instr_bits) land (max_funcs - 1), v land max_instrs)
  in
  let fetch i =
    let frame = code.fetch i in
    if Array.length frame.flat > max_instrs then
      fail "%s has %d instructions; return addresses hold at most %d"
        code.names.(i) (Array.length frame.flat) max_instrs;
    frame
  in
  let entry_idx =
    match Hashtbl.find_opt fidx_of_name entry with
    | Some i -> i
    | None -> fail "entry function %s not found" entry
  in
  let fidx = ref entry_idx in
  let pc = ref 0 in
  on_call entry_idx;
  let cur = ref (fetch entry_idx) in
  let running = ref true in
  let do_call target_name =
    if List.mem target_name Isa.builtins && not (Hashtbl.mem fidx_of_name target_name)
    then builtin target_name
    else begin
      match Hashtbl.find_opt fidx_of_name target_name with
      | Some ti ->
        regs.(Isa.ra) <- encode_ra !fidx !pc;
        fidx := ti;
        pc := 0;
        on_call ti;
        cur := fetch ti
      | None -> fail "call to unknown function %s" target_name
    end
  in
  let do_call_idx ti =
    regs.(Isa.ra) <- encode_ra !fidx !pc;
    fidx := ti;
    pc := 0;
    on_call ti;
    cur := fetch ti
  in
  while !running do
    if !steps >= fuel then fail "fuel exhausted after %d steps" !steps;
    let frame = !cur in
    if !pc >= Array.length frame.flat then
      fail "%s: fell off the end of the function" code.names.(!fidx);
    let ins = frame.flat.(!pc) in
    incr steps;
    incr pc;
    let branch l =
      match Hashtbl.find_opt frame.label_of l with
      | Some i -> pc := i
      | None -> fail "undefined label %s" l
    in
    match ins with
    | Isa.Label l -> on_label !fidx l
    | Isa.Ld (w, rd, imm, rs) -> regs.(rd) <- load w (regs.(rs) + imm)
    | Isa.St (w, rs2, imm, rs1) -> store w (regs.(rs1) + imm) regs.(rs2)
    | Isa.Ldx (w, rd, rs) -> regs.(rd) <- load w regs.(rs)
    | Isa.Stx (w, rs2, rs1) -> store w regs.(rs1) regs.(rs2)
    | Isa.Li (rd, v) -> regs.(rd) <- norm v
    | Isa.La (rd, s) -> regs.(rd) <- addr_of_sym s
    | Isa.Mov (rd, rs) -> regs.(rd) <- regs.(rs)
    | Isa.Alu (op, rd, a, b) -> regs.(rd) <- alu op regs.(a) regs.(b)
    | Isa.Alui (op, rd, a, v) -> regs.(rd) <- alu op regs.(a) v
    | Isa.Neg (rd, rs) -> regs.(rd) <- norm (-regs.(rs))
    | Isa.Not (rd, rs) -> regs.(rd) <- norm (lnot regs.(rs))
    | Isa.Sext (Isa.B, rd, rs) ->
      let v = regs.(rs) land 0xff in
      regs.(rd) <- (if v land 0x80 <> 0 then v - 0x100 else v)
    | Isa.Sext (Isa.H, rd, rs) ->
      let v = regs.(rs) land 0xffff in
      regs.(rd) <- (if v land 0x8000 <> 0 then v - 0x10000 else v)
    | Isa.Sext (Isa.W, rd, rs) -> regs.(rd) <- regs.(rs)
    | Isa.Br (rel, a, b, l) -> if Isa.eval_rel rel regs.(a) regs.(b) then branch l
    | Isa.Bri (rel, a, v, l) -> if Isa.eval_rel rel regs.(a) v then branch l
    | Isa.Jmp l -> branch l
    | Isa.Call s -> do_call s
    | Isa.Callr r -> do_call_idx (fidx_of_addr regs.(r))
    | Isa.Rjr -> (
      match decode_ra regs.(Isa.ra) with
      | Some (rf, ri) ->
        if rf >= nfuncs then fail "return to non-function index %d" rf;
        fidx := rf;
        pc := ri;
        cur := fetch rf
      | None -> running := false)
    | Isa.Enter k -> regs.(Isa.sp) <- regs.(Isa.sp) - k
    | Isa.Exit k -> regs.(Isa.sp) <- regs.(Isa.sp) + k
    | Isa.Spill (r, off) -> store Isa.W (regs.(Isa.sp) + off) regs.(r)
    | Isa.Reload (r, off) -> regs.(r) <- load Isa.W (regs.(Isa.sp) + off)
  done;
  { exit_code = regs.(0); output = Buffer.contents output; steps = !steps }

let run_code ?(mem_size = default_mem_size) ?(input = "")
    ?(fuel = 200_000_000) ?(entry = "main") ?(on_call = fun (_ : int) -> ())
    ?(on_label = fun (_ : int) (_ : string) -> ()) (code : paged_code) : result
    =
  exec_code ~mem:(Bytes.make mem_size '\000') ~input ~fuel ~entry ~on_call
    ~on_label code

(* The repeats share one buffer, cleared between them: a clear costs a
   fraction of allocating 4 MiB afresh, which also drives the major
   GC. *)
let run_session ?(mem_size = default_mem_size) ?(input = "")
    ?(fuel = 200_000_000) ?(entry = "main") ~repeat (code : paged_code) :
    result =
  if repeat < 1 then invalid_arg "Interp.run_session: repeat must be >= 1";
  let mem = Bytes.make mem_size '\000' in
  let on_call (_ : int) = () and on_label (_ : int) (_ : string) = () in
  let rec go k =
    let res = exec_code ~mem ~input ~fuel ~entry ~on_call ~on_label code in
    if k = repeat then res
    else begin
      Bytes.fill mem 0 mem_size '\000';
      go (k + 1)
    end
  in
  go 1

let run ?mem_size ?input ?fuel ?entry ?on_call ?on_label (p : Isa.vprogram) :
    result =
  let funcs = Array.of_list p.Isa.funcs in
  let frames = Array.map prepare_func funcs in
  run_code ?mem_size ?input ?fuel ?entry ?on_call ?on_label
    {
      names = Array.map (fun (f : Isa.vfunc) -> f.Isa.name) funcs;
      globals = p.Isa.globals;
      fetch = (fun i -> frames.(i));
    }
