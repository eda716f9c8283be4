exception Codegen_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Codegen_error m)) fmt

let max_reg_args = 6

(* evaluation registers: n4..n13, callee-saved (n14=sp, n15=ra) *)
let first_eval_reg = 4
let n_eval_regs = 10

type slot = Vreg of Isa.reg | Vspill of int  (* scratch slot index *)

(* The value stack and the free-register list are stacks in arrays, and
   the set of registers ever allocated is a bit mask: code generation
   runs on every demand-paging fault, and these change on nearly every
   emitted instruction. *)
type ctx = {
  features : Isa.feature_set;
  frame_size : int;            (* IR locals *)
  nformals : int;
  mutable out : Isa.instr list;   (* reversed *)
  mutable stack : slot array;     (* value stack, deepest first ... *)
  mutable depth : int;            (* ... top at [depth - 1] *)
  mutable free : Isa.reg array;   (* free eval registers, LIFO ... *)
  mutable nfree : int;            (* ... next allocated at [nfree - 1] *)
  mutable used : int;             (* bit r set: eval reg r ever allocated *)
  mutable nscratch : int;         (* scratch spill slots allocated *)
  mutable makes_call : bool;
  mutable next_lbl : int;
}

let emit ctx i = ctx.out <- i :: ctx.out

let formal_area ctx = ctx.frame_size
let scratch_area ctx = ctx.frame_size + (4 * ctx.nformals)
let scratch_off ctx k = scratch_area ctx + (4 * k)

let fresh_scratch ctx =
  let k = ctx.nscratch in
  ctx.nscratch <- k + 1;
  k

(* Allocate an eval register (the most recently freed first); if none
   are free, spill the *deepest* register-resident stack slot to a
   scratch frame slot. *)
let rec alloc_reg ctx =
  if ctx.nfree > 0 then begin
    ctx.nfree <- ctx.nfree - 1;
    let r = ctx.free.(ctx.nfree) in
    ctx.used <- ctx.used lor (1 lsl r);
    r
  end
  else begin
    let rec deepest_reg i =
      if i = ctx.depth then fail "expression too complex: no spillable value"
      else match ctx.stack.(i) with Vreg r -> (i, r) | Vspill _ -> deepest_reg (i + 1)
    in
    let i, r = deepest_reg 0 in
    let k = fresh_scratch ctx in
    emit ctx (Isa.St (Isa.W, r, scratch_off ctx k, Isa.sp));
    ctx.stack.(i) <- Vspill k;
    ctx.free.(0) <- r;
    ctx.nfree <- 1;
    alloc_reg ctx
  end

let grow a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 n;
    b
  end

let free_reg ctx r =
  ctx.free <- grow ctx.free ctx.nfree 0;
  ctx.free.(ctx.nfree) <- r;
  ctx.nfree <- ctx.nfree + 1

let push ctx slot =
  ctx.stack <- grow ctx.stack ctx.depth slot;
  ctx.stack.(ctx.depth) <- slot;
  ctx.depth <- ctx.depth + 1

let pop ctx =
  if ctx.depth = 0 then fail "internal: value stack underflow";
  ctx.depth <- ctx.depth - 1;
  ctx.stack.(ctx.depth)

(* Pop a slot into a register (reloading if spilled). *)
let pop_reg ctx =
  match pop ctx with
  | Vreg r -> r
  | Vspill k ->
    let r = alloc_reg ctx in
    emit ctx (Isa.Ld (Isa.W, r, scratch_off ctx k, Isa.sp));
    r

let width_of_ty = function
  | Ir.Op.C -> Isa.B
  | Ir.Op.S -> Isa.H
  | Ir.Op.I | Ir.Op.P -> Isa.W
  | Ir.Op.V -> fail "void type in value position"

let aluop_of_binop = function
  | Ir.Op.Add -> Isa.Add
  | Ir.Op.Sub -> Isa.Sub
  | Ir.Op.Mul -> Isa.Mul
  | Ir.Op.Div -> Isa.Div
  | Ir.Op.Mod -> Isa.Mod
  | Ir.Op.Band -> Isa.And
  | Ir.Op.Bor -> Isa.Or
  | Ir.Op.Bxor -> Isa.Xor
  | Ir.Op.Lsh -> Isa.Shl
  | Ir.Op.Rsh -> Isa.Shr

let relop_of_ir = function
  | Ir.Op.Eq -> Isa.Eq
  | Ir.Op.Ne -> Isa.Ne
  | Ir.Op.Lt -> Isa.Lt
  | Ir.Op.Le -> Isa.Le
  | Ir.Op.Gt -> Isa.Gt
  | Ir.Op.Ge -> Isa.Ge

(* load the address denoted by an sp-relative offset into a register *)
let addr_into_reg ctx off =
  let r = alloc_reg ctx in
  if ctx.features.Isa.has_imm_alu then emit ctx (Isa.Alui (Isa.Add, r, Isa.sp, off))
  else begin
    emit ctx (Isa.Li (r, off));
    emit ctx (Isa.Alu (Isa.Add, r, Isa.sp, r))
  end;
  r

(* memory access through an sp displacement, honouring the feature set *)
let load_sp ctx w rd off =
  if ctx.features.Isa.has_reg_disp then emit ctx (Isa.Ld (w, rd, off, Isa.sp))
  else begin
    let ar = addr_into_reg ctx off in
    emit ctx (Isa.Ldx (w, rd, ar));
    free_reg ctx ar
  end

let store_sp ctx w rs off =
  if ctx.features.Isa.has_reg_disp then emit ctx (Isa.St (w, rs, off, Isa.sp))
  else begin
    let ar = addr_into_reg ctx off in
    emit ctx (Isa.Stx (w, rs, ar));
    free_reg ctx ar
  end

(* ---- tree evaluation ---- *)

let rec eval ctx (t : Ir.Tree.tree) : unit =
  (* evaluates t, pushing its value onto the stack *)
  match t with
  | Ir.Tree.Cnst (_, _, v) ->
    let r = alloc_reg ctx in
    emit ctx (Isa.Li (r, v));
    push ctx (Vreg r)
  | Ir.Tree.Addrl (_, off) ->
    let r = addr_into_reg ctx off in
    push ctx (Vreg r)
  | Ir.Tree.Addrf (_, off) ->
    let r = addr_into_reg ctx (formal_area ctx + off) in
    push ctx (Vreg r)
  | Ir.Tree.Addrg name ->
    let r = alloc_reg ctx in
    emit ctx (Isa.La (r, name));
    push ctx (Vreg r)
  | Ir.Tree.Indir (ty, addr) -> (
    let w = width_of_ty ty in
    match addr with
    | Ir.Tree.Addrl (_, off) ->
      let r = alloc_reg ctx in
      load_sp ctx w r off;
      push ctx (Vreg r)
    | Ir.Tree.Addrf (_, off) ->
      let r = alloc_reg ctx in
      load_sp ctx w r (formal_area ctx + off);
      push ctx (Vreg r)
    | Ir.Tree.Binop (Ir.Op.P, Ir.Op.Add, base, Ir.Tree.Cnst (_, _, d))
      when ctx.features.Isa.has_reg_disp ->
      eval ctx base;
      let b = pop_reg ctx in
      let r = alloc_reg ctx in
      emit ctx (Isa.Ld (w, r, d, b));
      free_reg ctx b;
      push ctx (Vreg r)
    | _ ->
      eval ctx addr;
      let a = pop_reg ctx in
      let r = alloc_reg ctx in
      if ctx.features.Isa.has_reg_disp then emit ctx (Isa.Ld (w, r, 0, a))
      else emit ctx (Isa.Ldx (w, r, a));
      free_reg ctx a;
      push ctx (Vreg r))
  | Ir.Tree.Binop (_, op, a, b) -> (
    let commutative =
      match op with
      | Ir.Op.Add | Ir.Op.Mul | Ir.Op.Band | Ir.Op.Bor | Ir.Op.Bxor -> true
      | _ -> false
    in
    match (a, b) with
    | _, Ir.Tree.Cnst (_, _, v) when ctx.features.Isa.has_imm_alu ->
      eval ctx a;
      let ra_ = pop_reg ctx in
      let rd = alloc_reg ctx in
      emit ctx (Isa.Alui (aluop_of_binop op, rd, ra_, v));
      free_reg ctx ra_;
      push ctx (Vreg rd)
    | Ir.Tree.Cnst (_, _, v), _ when ctx.features.Isa.has_imm_alu && commutative ->
      eval ctx b;
      let rb = pop_reg ctx in
      let rd = alloc_reg ctx in
      emit ctx (Isa.Alui (aluop_of_binop op, rd, rb, v));
      free_reg ctx rb;
      push ctx (Vreg rd)
    | _ ->
      eval ctx a;
      eval ctx b;
      let rb = pop_reg ctx in
      let ra_ = pop_reg ctx in
      let rd = alloc_reg ctx in
      emit ctx (Isa.Alu (aluop_of_binop op, rd, ra_, rb));
      free_reg ctx ra_;
      free_reg ctx rb;
      push ctx (Vreg rd))
  | Ir.Tree.Neg (_, a) ->
    eval ctx a;
    let r = pop_reg ctx in
    let rd = alloc_reg ctx in
    emit ctx (Isa.Neg (rd, r));
    free_reg ctx r;
    push ctx (Vreg rd)
  | Ir.Tree.Bcom (_, a) ->
    eval ctx a;
    let r = pop_reg ctx in
    let rd = alloc_reg ctx in
    emit ctx (Isa.Not (rd, r));
    free_reg ctx r;
    push ctx (Vreg rd)
  | Ir.Tree.Cvt (from_, to_, a) -> (
    eval ctx a;
    (* loads sign-extend, so most conversions are register no-ops; the
       narrowing conversions re-extend from the lower width *)
    match (from_, to_) with
    | Ir.Op.I, Ir.Op.C | Ir.Op.S, Ir.Op.C ->
      let r = pop_reg ctx in
      let rd = alloc_reg ctx in
      emit ctx (Isa.Sext (Isa.B, rd, r));
      free_reg ctx r;
      push ctx (Vreg rd)
    | Ir.Op.I, Ir.Op.S ->
      let r = pop_reg ctx in
      let rd = alloc_reg ctx in
      emit ctx (Isa.Sext (Isa.H, rd, r));
      free_reg ctx r;
      push ctx (Vreg rd)
    | _ -> ())
  | Ir.Tree.Call (ty, callee) ->
    gen_call ctx ty callee;
    (* result in n0; copy to an eval register *)
    let rd = alloc_reg ctx in
    emit ctx (Isa.Mov (rd, 0));
    push ctx (Vreg rd)

(* Perform a call: all current stack slots are the pending arguments
   (deepest = first). Moves them to n0.., emits the call. *)
and gen_call ctx _ty callee =
  ctx.makes_call <- true;
  (* for indirect calls evaluate the callee address first *)
  let callee_reg =
    match callee with
    | Ir.Tree.Addrg _ -> None
    | _ ->
      eval ctx callee;
      Some (pop_reg ctx)
  in
  (* the pending arguments, deepest first *)
  let nargs = ctx.depth in
  ctx.depth <- 0;
  if nargs > max_reg_args then
    fail "calls with more than %d arguments are not supported" max_reg_args;
  let args = Array.sub ctx.stack 0 nargs in
  Array.iteri
    (fun i slot ->
      match slot with
      | Vreg r ->
        emit ctx (Isa.Mov (i, r));
        free_reg ctx r
      | Vspill k -> load_sp ctx Isa.W i (scratch_off ctx k))
    args;
  (match callee with
  | Ir.Tree.Addrg f -> emit ctx (Isa.Call f)
  | _ -> (
    match callee_reg with
    | Some r ->
      emit ctx (Isa.Callr r);
      free_reg ctx r
    | None -> assert false))

(* store top-of-concept value [v] through address tree [addr] *)
let gen_store ctx ty addr value_reg =
  let w = width_of_ty ty in
  match addr with
  | Ir.Tree.Addrl (_, off) -> store_sp ctx w value_reg off
  | Ir.Tree.Addrf (_, off) -> store_sp ctx w value_reg (formal_area ctx + off)
  | Ir.Tree.Binop (Ir.Op.P, Ir.Op.Add, base, Ir.Tree.Cnst (_, _, d))
    when ctx.features.Isa.has_reg_disp ->
    eval ctx base;
    let b = pop_reg ctx in
    emit ctx (Isa.St (w, value_reg, d, b));
    free_reg ctx b
  | _ ->
    eval ctx addr;
    let a = pop_reg ctx in
    if ctx.features.Isa.has_reg_disp then emit ctx (Isa.St (w, value_reg, 0, a))
    else emit ctx (Isa.Stx (w, value_reg, a));
    free_reg ctx a

let epilogue_label = "epilogue"

let gen_stmt ctx (s : Ir.Tree.stmt) =
  match s with
  | Ir.Tree.Sasgn (ty, addr, Ir.Tree.Call (cty, callee)) ->
    (* call result stored directly; args are the current stack *)
    gen_call ctx cty callee;
    let rd = alloc_reg ctx in
    emit ctx (Isa.Mov (rd, 0));
    gen_store ctx ty addr rd;
    free_reg ctx rd
  | Ir.Tree.Sasgn (ty, addr, value) ->
    eval ctx value;
    let v = pop_reg ctx in
    gen_store ctx ty addr v;
    free_reg ctx v
  | Ir.Tree.Sarg (_, t) ->
    (* leave the value on the stack; consumed by the next call *)
    eval ctx t
  | Ir.Tree.Scall (ty, callee) -> gen_call ctx ty callee
  | Ir.Tree.Scnd (rel, _, a, b, lbl) -> (
    let vrel = relop_of_ir rel in
    match b with
    | Ir.Tree.Cnst (_, _, v) when ctx.features.Isa.has_imm_alu ->
      eval ctx a;
      let r = pop_reg ctx in
      emit ctx (Isa.Bri (vrel, r, v, lbl));
      free_reg ctx r
    | _ ->
      eval ctx a;
      eval ctx b;
      let rb = pop_reg ctx in
      let ra_ = pop_reg ctx in
      emit ctx (Isa.Br (vrel, ra_, rb, lbl));
      free_reg ctx ra_;
      free_reg ctx rb)
  | Ir.Tree.Sjump lbl -> emit ctx (Isa.Jmp lbl)
  | Ir.Tree.Slabel lbl -> emit ctx (Isa.Label lbl)
  | Ir.Tree.Sret (_, None) -> emit ctx (Isa.Jmp epilogue_label)
  | Ir.Tree.Sret (_, Some t) ->
    eval ctx t;
    let r = pop_reg ctx in
    emit ctx (Isa.Mov (0, r));
    free_reg ctx r;
    emit ctx (Isa.Jmp epilogue_label)

let gen_func ?(features = Isa.full_risc) (_prog : Ir.Tree.program)
    (f : Ir.Tree.func) : Isa.vfunc =
  let nformals = List.length f.Ir.Tree.formals in
  if nformals > max_reg_args then
    fail "%s: more than %d formals" f.Ir.Tree.fname max_reg_args;
  let ctx =
    {
      features;
      frame_size = f.Ir.Tree.frame_size;
      nformals;
      out = [];
      stack = Array.make 8 (Vspill 0);
      depth = 0;
      (* n4 on top: allocated first *)
      free = Array.init 16 (fun i -> first_eval_reg + n_eval_regs - 1 - i);
      nfree = n_eval_regs;
      used = 0;
      nscratch = 0;
      makes_call = false;
      next_lbl = 0;
    }
  in
  (* Without register-displacement addressing the prologue needs a
     scratch register to address the formal spill slots; reserve n13 so
     it is saved before being clobbered. *)
  if (not features.Isa.has_reg_disp) && nformals > 0 then ctx.used <- 1 lsl 13;
  List.iter (gen_stmt ctx) f.Ir.Tree.body;
  (* frame layout now fully known *)
  let saved_regs = List.filter (fun r -> ctx.used land (1 lsl r) <> 0) (List.init 16 Fun.id) in
  let save_base = scratch_off ctx ctx.nscratch in
  let nsaved = List.length saved_regs in
  let ra_slot = save_base + (4 * nsaved) in
  let frame_total = ra_slot + (if ctx.makes_call then 4 else 0) in
  let frame_total = (frame_total + 7) / 8 * 8 in
  let store_formal i =
    let off = formal_area ctx + (4 * i) in
    if features.Isa.has_reg_disp then [ Isa.St (Isa.W, i, off, Isa.sp) ]
    else
      (if features.Isa.has_imm_alu then [ Isa.Alui (Isa.Add, 13, Isa.sp, off) ]
       else [ Isa.Li (13, off); Isa.Alu (Isa.Add, 13, Isa.sp, 13) ])
      @ [ Isa.Stx (Isa.W, i, 13) ]
  in
  let prologue =
    (Isa.Enter frame_total
     :: List.mapi (fun i r -> Isa.Spill (r, save_base + (4 * i))) saved_regs)
    @ (if ctx.makes_call then [ Isa.Spill (Isa.ra, ra_slot) ] else [])
    @ List.concat (List.init nformals store_formal)
  in
  let epilogue =
    (Isa.Label epilogue_label
     :: (if ctx.makes_call then [ Isa.Reload (Isa.ra, ra_slot) ] else []))
    @ List.mapi (fun i r -> Isa.Reload (r, save_base + (4 * i))) saved_regs
    @ [ Isa.Exit frame_total; Isa.Rjr ]
  in
  (* [ctx.out] is the body reversed: one pass puts it in order in front
     of the epilogue *)
  { Isa.name = f.Ir.Tree.fname;
    code = prologue @ List.rev_append ctx.out epilogue }

let gen_program ?(features = Isa.full_risc) (prog : Ir.Tree.program) :
    Isa.vprogram =
  let funcs = List.map (gen_func ~features prog) prog.Ir.Tree.funcs in
  let globals =
    List.map
      (fun g -> (g.Ir.Tree.gname, g.Ir.Tree.gsize, g.Ir.Tree.ginit))
      prog.Ir.Tree.globals
  in
  let vp = { Isa.globals; funcs } in
  match Isa.validate vp with
  | [] -> vp
  | issues -> fail "generated invalid VM code:\n%s" (String.concat "\n" issues)
