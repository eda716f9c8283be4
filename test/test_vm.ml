(* Tests for the VM layer: ISA validation, binary encoding, code
   generation, interpreter semantics and traps. *)

let qcheck = QCheck_alcotest.to_alcotest

let compile src = Vm.Codegen.gen_program (Cc.Lower.compile src)

(* ---- ISA / validation ---- *)

let test_reg_names () =
  Alcotest.(check string) "n0" "n0" (Vm.Isa.reg_name 0);
  Alcotest.(check string) "sp" "sp" (Vm.Isa.reg_name Vm.Isa.sp);
  Alcotest.(check string) "ra" "ra" (Vm.Isa.reg_name Vm.Isa.ra);
  Alcotest.(check int) "16 registers" 16 Vm.Isa.num_regs

let test_validate_catches_bad_reg () =
  let p =
    { Vm.Isa.globals = [];
      funcs = [ { Vm.Isa.name = "f"; code = [ Vm.Isa.Mov (99, 0); Vm.Isa.Rjr ] } ] }
  in
  Alcotest.(check bool) "bad register" true (Vm.Isa.validate p <> [])

let test_validate_catches_bad_label () =
  let p =
    { Vm.Isa.globals = [];
      funcs = [ { Vm.Isa.name = "f"; code = [ Vm.Isa.Jmp "nowhere"; Vm.Isa.Rjr ] } ] }
  in
  Alcotest.(check bool) "bad label" true (Vm.Isa.validate p <> [])

let test_validate_catches_unknown_call () =
  let p =
    { Vm.Isa.globals = [];
      funcs = [ { Vm.Isa.name = "f"; code = [ Vm.Isa.Call "ghost"; Vm.Isa.Rjr ] } ] }
  in
  Alcotest.(check bool) "unknown call" true (Vm.Isa.validate p <> [])

let test_validate_accepts_builtin_call () =
  let p =
    { Vm.Isa.globals = [];
      funcs = [ { Vm.Isa.name = "f"; code = [ Vm.Isa.Call "putchar"; Vm.Isa.Rjr ] } ] }
  in
  Alcotest.(check (list string)) "ok" [] (Vm.Isa.validate p)

let test_instr_printing () =
  Alcotest.(check string) "ld" "ld.iw n0,4(sp)"
    (Vm.Isa.instr_to_string (Vm.Isa.Ld (Vm.Isa.W, 0, 4, Vm.Isa.sp)));
  Alcotest.(check string) "enter" "enter sp,sp,24"
    (Vm.Isa.instr_to_string (Vm.Isa.Enter 24));
  Alcotest.(check string) "ble" "ble.i n4,0,$L56"
    (Vm.Isa.instr_to_string (Vm.Isa.Bri (Vm.Isa.Le, 4, 0, "L56")))

(* ---- field view (used by BRISC) ---- *)

let test_fields_rebuild_identity () =
  let instrs =
    [ Vm.Isa.Ld (Vm.Isa.W, 0, 4, Vm.Isa.sp); Vm.Isa.Mov (2, 0);
      Vm.Isa.Alu (Vm.Isa.Add, 1, 2, 3); Vm.Isa.Alui (Vm.Isa.Sub, 0, 1, -7);
      Vm.Isa.Br (Vm.Isa.Lt, 1, 2, "L"); Vm.Isa.Enter 24;
      Vm.Isa.Spill (4, 16); Vm.Isa.Call "f"; Vm.Isa.Rjr;
      Vm.Isa.La (3, "g"); Vm.Isa.Li (5, 100000) ]
  in
  List.iter
    (fun i ->
      let i' = Vm.Encode.rebuild i (Vm.Encode.fields i) in
      Alcotest.(check string) "identity" (Vm.Isa.instr_to_string i)
        (Vm.Isa.instr_to_string i'))
    instrs

let test_base_keys_distinct () =
  (* shapes that must not collide *)
  let keys =
    List.map Vm.Encode.base_key
      [ Vm.Isa.Ld (Vm.Isa.W, 0, 0, 0); Vm.Isa.Ld (Vm.Isa.B, 0, 0, 0);
        Vm.Isa.Alu (Vm.Isa.Add, 0, 0, 0); Vm.Isa.Alui (Vm.Isa.Add, 0, 0, 0);
        Vm.Isa.Br (Vm.Isa.Le, 0, 0, ""); Vm.Isa.Bri (Vm.Isa.Le, 0, 0, "") ]
  in
  Alcotest.(check int) "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_paper_sizes () =
  (* the paper's example counts: ld.iw n0,4(sp) = 3 bytes, mov.i = 2,
     enter sp,sp,24 = 3 *)
  Alcotest.(check int) "ld.iw" 3
    (Vm.Encode.encoded_size (Vm.Isa.Ld (Vm.Isa.W, 0, 4, Vm.Isa.sp)));
  Alcotest.(check int) "mov.i" 2 (Vm.Encode.encoded_size (Vm.Isa.Mov (2, 0)));
  Alcotest.(check int) "enter" 3 (Vm.Encode.encoded_size (Vm.Isa.Enter 24));
  Alcotest.(check int) "spill" 3 (Vm.Encode.encoded_size (Vm.Isa.Spill (4, 16)));
  Alcotest.(check int) "rjr" 1 (Vm.Encode.encoded_size Vm.Isa.Rjr);
  Alcotest.(check int) "label free" 0 (Vm.Encode.encoded_size (Vm.Isa.Label "x"))

let test_shape_code_roundtrip () =
  for code = 0 to 60 do
    let t = Vm.Encode.template_of_code code in
    Alcotest.(check int) "roundtrip" code (Vm.Encode.shape_code t)
  done

(* ---- binary program image ---- *)

let test_encode_decode_program () =
  let vp = compile Corpus.Programs.qsort.Corpus.Programs.source in
  let img = Vm.Encode.encode_program vp in
  let vp' = Vm.Encode.decode_program_exn img in
  Alcotest.(check bool) "identical" true (vp = vp')

let test_encode_decode_with_globals () =
  let vp = compile "int t[3] = {9,8,7}; char *s = 0; int main() { return t[0]; }" in
  let vp' = Vm.Encode.decode_program_exn (Vm.Encode.encode_program vp) in
  Alcotest.(check bool) "identical" true (vp = vp')

(* ---- codegen shape ---- *)

let test_prologue_shape () =
  (* paper §4.4: enter, spills of callee-saved regs and ra, body, exit,
     rjr *)
  let vp = compile Corpus.Programs.queens.Corpus.Programs.source in
  let f = List.find (fun f -> f.Vm.Isa.name = "solve") vp.Vm.Isa.funcs in
  (match f.Vm.Isa.code with
  | Vm.Isa.Enter _ :: rest ->
    let has_ra_spill =
      List.exists
        (fun i -> match i with Vm.Isa.Spill (r, _) -> r = Vm.Isa.ra | _ -> false)
        rest
    in
    Alcotest.(check bool) "spills ra (makes calls)" true has_ra_spill
  | _ -> Alcotest.fail "function must start with enter");
  match List.rev f.Vm.Isa.code with
  | Vm.Isa.Rjr :: Vm.Isa.Exit _ :: _ -> ()
  | _ -> Alcotest.fail "function must end with exit; rjr"

let test_leaf_function_no_ra_spill () =
  let vp = compile "int leaf(int x) { return x * 2; } int main() { return leaf(21); }" in
  let f = List.find (fun f -> f.Vm.Isa.name = "leaf") vp.Vm.Isa.funcs in
  let spills_ra =
    List.exists
      (fun i -> match i with Vm.Isa.Spill (r, _) -> r = Vm.Isa.ra | _ -> false)
      f.Vm.Isa.code
  in
  Alcotest.(check bool) "no ra spill in leaf" false spills_ra

let test_features_affect_instruction_mix () =
  let src = Corpus.Programs.sieve.Corpus.Programs.source in
  let ir = Cc.Lower.compile src in
  let full = Vm.Codegen.gen_program ~features:Vm.Isa.full_risc ir in
  let noimm = Vm.Codegen.gen_program ~features:Vm.Isa.minus_immediates ir in
  let nodisp = Vm.Codegen.gen_program ~features:Vm.Isa.minus_reg_disp ir in
  let count pred p =
    List.fold_left
      (fun acc f -> acc + List.length (List.filter pred f.Vm.Isa.code))
      0 p.Vm.Isa.funcs
  in
  let is_alui i = match i with Vm.Isa.Alui _ | Vm.Isa.Bri _ -> true | _ -> false in
  let is_disp i = match i with Vm.Isa.Ld _ | Vm.Isa.St _ -> true | _ -> false in
  Alcotest.(check bool) "full uses imm forms" true (count is_alui full > 0);
  Alcotest.(check int) "minus-imm has none" 0 (count is_alui noimm);
  Alcotest.(check bool) "full uses displacement" true (count is_disp full > 0);
  Alcotest.(check int) "minus-disp has none" 0 (count is_disp nodisp);
  (* de-tuning makes programs longer (the §5 premise) *)
  Alcotest.(check bool) "noimm bigger" true
    (Vm.Encode.program_size noimm > Vm.Encode.program_size full);
  Alcotest.(check bool) "nodisp bigger" true
    (Vm.Encode.program_size nodisp > Vm.Encode.program_size full)

let all_feature_sets =
  [ Vm.Isa.full_risc; Vm.Isa.minus_immediates; Vm.Isa.minus_reg_disp;
    Vm.Isa.minimal ]

let test_detuned_equivalence () =
  List.iter
    (fun (e : Corpus.Programs.entry) ->
      let ir = Cc.Lower.compile e.Corpus.Programs.source in
      let reference =
        Vm.Interp.run ~input:e.Corpus.Programs.input (Vm.Codegen.gen_program ir)
      in
      List.iter
        (fun feats ->
          let vp = Vm.Codegen.gen_program ~features:feats ir in
          let r = Vm.Interp.run ~input:e.Corpus.Programs.input vp in
          Alcotest.(check string)
            (e.Corpus.Programs.name ^ " output under " ^ Vm.Isa.feature_set_name feats)
            reference.Vm.Interp.output r.Vm.Interp.output;
          Alcotest.(check int) "exit code" reference.Vm.Interp.exit_code
            r.Vm.Interp.exit_code)
        all_feature_sets)
    [ Corpus.Programs.wc; Corpus.Programs.sieve; Corpus.Programs.strlib;
      Corpus.Programs.calc ]

(* ---- assembler ---- *)

let test_asm_roundtrip_corpus () =
  List.iter
    (fun (e : Corpus.Programs.entry) ->
      let vp = compile e.Corpus.Programs.source in
      let text = Vm.Isa.program_to_string vp in
      let vp' = Vm.Asm.parse_program text in
      Alcotest.(check bool) (e.Corpus.Programs.name ^ " roundtrip") true (vp = vp'))
    [ Corpus.Programs.wc; Corpus.Programs.calc; Corpus.Programs.strlib ]

let test_asm_single_instrs () =
  List.iter
    (fun text ->
      let i = Vm.Asm.parse_instr text in
      Alcotest.(check string) "reprint" text (Vm.Isa.instr_to_string i))
    [ "ld.iw n0,4(sp)"; "st.ib n3,-1(n2)"; "ldx.ih n1,(n2)"; "li n5,-100000";
      "la n2,table"; "mov.i n2,n0"; "add.i n1,n2,n3"; "sub.i n0,n1,42";
      "ble.i n4,0,$L56"; "bge.i n1,n2,$top"; "jmp $out"; "call pepper";
      "callr n3"; "rjr ra"; "enter sp,sp,24"; "exit sp,sp,24";
      "spill.i n4,16(sp)"; "reload.i ra,20(sp)"; "sext.b n0,n1";
      "neg.i n1,n2"; "not.i n3,n3" ]

let test_asm_errors () =
  List.iter
    (fun text ->
      match Vm.Asm.parse_instr text with
      | exception Vm.Asm.Asm_error _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ text))
    [ "ld.iw n99,4(sp)"; "frobnicate n0"; "mov.i n0"; "ble.i n4,0,L56";
      "spill.i n4,16(n2)" ]

let test_asm_program_with_globals () =
  let src =
    ".global counter 4
     .global table 4 = 1,2,3,4
     main:
    \  la n1,counter   # comment
    \  li n2,7
     $loop:
    \  sub.i n2,n2,1
    \  bgt.i n2,0,$loop
    \  stx.iw n2,(n1)
    \  mov.i n0,n2
    \  rjr ra
"
  in
  let vp = Vm.Asm.parse_program src in
  let r = Vm.Interp.run vp in
  Alcotest.(check int) "counts down to zero" 0 r.Vm.Interp.exit_code

(* ---- peephole optimizer ---- *)

let test_peephole_preserves_semantics () =
  List.iter
    (fun (e : Corpus.Programs.entry) ->
      let vp = compile e.Corpus.Programs.source in
      let opt = Vm.Peephole.optimize vp in
      Alcotest.(check (list string)) "stays valid" [] (Vm.Isa.validate opt);
      let r0 = Vm.Interp.run ~input:e.Corpus.Programs.input vp in
      let r1 = Vm.Interp.run ~input:e.Corpus.Programs.input opt in
      Alcotest.(check string) (e.Corpus.Programs.name ^ " output")
        r0.Vm.Interp.output r1.Vm.Interp.output;
      Alcotest.(check int) "exit" r0.Vm.Interp.exit_code r1.Vm.Interp.exit_code;
      Alcotest.(check bool) "not slower" true
        (r1.Vm.Interp.steps <= r0.Vm.Interp.steps))
    Corpus.Programs.all

let test_peephole_shrinks () =
  let vp = compile Corpus.Programs.calc.Corpus.Programs.source in
  let before, after = Vm.Peephole.stats vp in
  Alcotest.(check bool) "fewer instructions" true (after < before)

let test_peephole_rewrites () =
  let f ops = { Vm.Isa.name = "f"; code = ops } in
  let opt ops = (Vm.Peephole.optimize_func (f ops)).Vm.Isa.code in
  (* store-to-load forwarding *)
  Alcotest.(check bool) "st/ld forwards" true
    (opt [ Vm.Isa.St (Vm.Isa.W, 4, 8, Vm.Isa.sp); Vm.Isa.Ld (Vm.Isa.W, 5, 8, Vm.Isa.sp); Vm.Isa.Rjr ]
    = [ Vm.Isa.St (Vm.Isa.W, 4, 8, Vm.Isa.sp); Vm.Isa.Mov (5, 4); Vm.Isa.Rjr ]);
  (* self-move vanishes *)
  Alcotest.(check bool) "mov self" true
    (opt [ Vm.Isa.Mov (3, 3); Vm.Isa.Rjr ] = [ Vm.Isa.Rjr ]);
  (* add 0 vanishes when in place *)
  Alcotest.(check bool) "add 0" true
    (opt [ Vm.Isa.Alui (Vm.Isa.Add, 2, 2, 0); Vm.Isa.Rjr ] = [ Vm.Isa.Rjr ]);
  (* jump to next label vanishes *)
  Alcotest.(check bool) "jmp next" true
    (opt [ Vm.Isa.Jmp "x"; Vm.Isa.Label "x"; Vm.Isa.Rjr ]
    = [ Vm.Isa.Label "x"; Vm.Isa.Rjr ]);
  (* a branch in between blocks forwarding *)
  let guarded =
    [ Vm.Isa.St (Vm.Isa.W, 4, 8, Vm.Isa.sp); Vm.Isa.Label "x";
      Vm.Isa.Ld (Vm.Isa.W, 5, 8, Vm.Isa.sp); Vm.Isa.Rjr ]
  in
  Alcotest.(check bool) "label blocks forwarding" true (opt guarded = guarded)

(* ---- interpreter traps ---- *)

let test_trap_div_zero () =
  let vp = compile "int main() { int z = 0; return 5 / z; }" in
  match Vm.Interp.run vp with
  | exception Vm.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "division by zero must trap"

let test_trap_fuel () =
  let vp = compile "int main() { while (1) { } return 0; }" in
  match Vm.Interp.run ~fuel:1000 vp with
  | exception Vm.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "fuel must run out"

let test_trap_bad_memory () =
  let vp = compile "int main() { int *p = 0; return *p; }" in
  (* address 0 is below the data base but inside memory: a load succeeds
     and returns zero; a negative address must trap *)
  ignore (Vm.Interp.run vp);
  let vp2 = compile "int main() { int *p = 0; p = p - 10000000; return *p; }" in
  match Vm.Interp.run vp2 with
  | exception Vm.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "out-of-range access must trap"

let test_trap_abort () =
  let vp = compile "int main() { abort(); return 0; }" in
  match Vm.Interp.run vp with
  | exception Vm.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "abort must trap"

let test_missing_entry () =
  let vp = compile "int helper() { return 1; }" in
  match Vm.Interp.run vp with
  | exception Vm.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "missing main must fail"

let test_on_call_trace () =
  let vp = compile {|
int leaf(int x) { return x; }
int main() { leaf(1); leaf(2); leaf(3); return 0; }|} in
  let calls = ref [] in
  ignore (Vm.Interp.run ~on_call:(fun i -> calls := i :: !calls) vp);
  (* entry (main) + three leaf calls *)
  Alcotest.(check int) "four events" 4 (List.length !calls)

(* Return addresses hold a 10-bit function index. With 1025 functions,
   main (index 1024) calling f0 would pack a return address that decodes
   as f0's, returning into the wrong function; the interpreter must trap
   instead. One function fewer fits and runs normally. *)
let program_with_functions n =
  let buf = Buffer.create (n * 40) in
  for i = 0 to n - 2 do
    Buffer.add_string buf (Printf.sprintf "int f%d(int x) { return x + %d; }\n" i i)
  done;
  Buffer.add_string buf "int main() { print_int(f0(41)); return 0; }\n";
  compile (Buffer.contents buf)

let test_trap_too_many_functions () =
  let fits = program_with_functions 1024 in
  Alcotest.(check string) "1024 functions run" "41"
    (Vm.Interp.run fits).Vm.Interp.output;
  let vp = program_with_functions 1025 in
  Alcotest.(check int) "main is function 1024" 1024
    (List.length vp.Vm.Isa.funcs - 1);
  (* trapped up front, for the reason itself — not by whatever the
     misdirected return happens to run into *)
  match Vm.Interp.run vp with
  | exception Vm.Interp.Runtime_error m ->
    Alcotest.(check string) "trap names the limit"
      "program has 1025 functions; return addresses hold at most 1024" m
  | r ->
    Alcotest.failf "1025 functions must trap, ran with output %S" r.Vm.Interp.output

(* The repeats of [run_session] share one memory buffer, and each must
   still start from all-zero memory: every repeat reads a large
   initialized global, an uninitialized global array (both spanning
   three 4 KiB pages, read in the middle one) and a never-written stack
   slot, and only then writes all of them. *)
let test_session_memory_fresh_per_repeat () =
  let vp =
    compile
      "char big[12288] = \"abc\"; int a[3072];\n\
       int peek() { int junk; return junk; }\n\
       int poke() { int junk; junk = 5; return junk; }\n\
       int main() { int i; int r;\n\
      \  r = big[1] + big[6000] + a[1536] + peek(); print_int(r);\n\
      \  for (i = 0; i < 12288; i = i + 1) big[i] = 7;\n\
      \  for (i = 0; i < 3072; i = i + 1) a[i] = 9;\n\
      \  poke(); return r; }"
  in
  let funcs = Array.of_list vp.Vm.Isa.funcs in
  let frames = Array.map Vm.Interp.prepare_func funcs in
  let code =
    { Vm.Interp.names = Array.map (fun (f : Vm.Isa.vfunc) -> f.Vm.Isa.name) funcs;
      globals = vp.Vm.Isa.globals;
      fetch = (fun i -> frames.(i)) }
  in
  let once = Vm.Interp.run vp in
  Alcotest.(check string) "fresh memory reads only the initializer"
    (string_of_int (Char.code 'b')) once.Vm.Interp.output;
  let last = Vm.Interp.run_session ~repeat:3 code in
  Alcotest.(check string) "3rd repeat output" once.Vm.Interp.output
    last.Vm.Interp.output;
  Alcotest.(check int) "3rd repeat steps" once.Vm.Interp.steps
    last.Vm.Interp.steps

(* [func_size] counts bytes without building field lists; it must agree
   with the field-list accounting on every instruction the code
   generator emits, under every feature set. *)
let test_func_size_matches_reference () =
  let gen profile = (Corpus.Gen.generate profile).Corpus.Programs.source in
  let sources =
    List.map (fun (e : Corpus.Programs.entry) -> e.Corpus.Programs.source)
      Corpus.Programs.all
    @ [ gen Corpus.Gen.small;
        gen { Corpus.Gen.functions = 80; seed = 101L; bias16 = false };
        gen { Corpus.Gen.functions = 40; seed = 7L; bias16 = true } ]
  in
  List.iter
    (fun src ->
      let ir = Cc.Lower.compile src in
      List.iter
        (fun feats ->
          let vp = Vm.Codegen.gen_program ~features:feats ir in
          List.iter
            (fun (f : Vm.Isa.vfunc) ->
              List.iter
                (fun i ->
                  if Vm.Encode.encoded_size i <> Vm.Encode.Reference.encoded_size i
                  then
                    Alcotest.failf "encoded_size of %s" (Vm.Isa.instr_to_string i))
                f.Vm.Isa.code;
              Alcotest.(check int) f.Vm.Isa.name
                (Vm.Encode.Reference.func_size f) (Vm.Encode.func_size f))
            vp.Vm.Isa.funcs)
        [ Vm.Isa.full_risc; Vm.Isa.minus_immediates; Vm.Isa.minus_reg_disp;
          Vm.Isa.minimal ])
    sources

(* ---- exec core properties ---- *)

let prop_alu_norm_range =
  QCheck.Test.make ~name:"alu results stay in 32-bit range" ~count:500
    QCheck.(triple (int_range 0 9) int int)
    (fun (opn, a, b) ->
      let op =
        [| Vm.Isa.Add; Vm.Isa.Sub; Vm.Isa.Mul; Vm.Isa.Div; Vm.Isa.Mod;
           Vm.Isa.And; Vm.Isa.Or; Vm.Isa.Xor; Vm.Isa.Shl; Vm.Isa.Shr |].(opn)
      in
      let a = Vm.Exec.norm a and b = Vm.Exec.norm b in
      match Vm.Exec.alu op a b with
      | v -> v >= -0x80000000 && v <= 0x7FFFFFFF
      | exception Vm.Exec.Trap _ -> b = 0)

let prop_mem_roundtrip =
  QCheck.Test.make ~name:"store/load roundtrip" ~count:300
    QCheck.(pair (int_range 0 1000) int)
    (fun (addr, v) ->
      let st = Vm.Exec.create ~mem_size:4096 () in
      let v = Vm.Exec.norm v in
      Vm.Exec.store st Vm.Isa.W addr v;
      Vm.Exec.load st Vm.Isa.W addr = v)

let prop_byte_load_sign_extends =
  QCheck.Test.make ~name:"byte loads sign-extend" ~count:300
    QCheck.(int_range 0 255)
    (fun b ->
      let st = Vm.Exec.create ~mem_size:64 () in
      Vm.Exec.store st Vm.Isa.B 0 b;
      let v = Vm.Exec.load st Vm.Isa.B 0 in
      if b < 128 then v = b else v = b - 256)

let () =
  Alcotest.run "vm"
    [
      ( "isa",
        [
          Alcotest.test_case "register names" `Quick test_reg_names;
          Alcotest.test_case "bad register" `Quick test_validate_catches_bad_reg;
          Alcotest.test_case "bad label" `Quick test_validate_catches_bad_label;
          Alcotest.test_case "unknown call" `Quick test_validate_catches_unknown_call;
          Alcotest.test_case "builtin call ok" `Quick test_validate_accepts_builtin_call;
          Alcotest.test_case "printing" `Quick test_instr_printing;
        ] );
      ( "encode",
        [
          Alcotest.test_case "fields/rebuild identity" `Quick
            test_fields_rebuild_identity;
          Alcotest.test_case "base keys distinct" `Quick test_base_keys_distinct;
          Alcotest.test_case "paper byte counts" `Quick test_paper_sizes;
          Alcotest.test_case "shape codes" `Quick test_shape_code_roundtrip;
          Alcotest.test_case "func_size = field-list reference" `Quick
            test_func_size_matches_reference;
          Alcotest.test_case "program roundtrip" `Quick test_encode_decode_program;
          Alcotest.test_case "globals roundtrip" `Quick
            test_encode_decode_with_globals;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "prologue/epilogue shape" `Quick test_prologue_shape;
          Alcotest.test_case "leaf omits ra spill" `Quick
            test_leaf_function_no_ra_spill;
          Alcotest.test_case "feature sets change mix" `Quick
            test_features_affect_instruction_mix;
          Alcotest.test_case "de-tuned equivalence" `Slow test_detuned_equivalence;
        ] );
      ( "asm",
        [
          Alcotest.test_case "corpus roundtrip" `Quick test_asm_roundtrip_corpus;
          Alcotest.test_case "single instructions" `Quick test_asm_single_instrs;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "program with globals" `Quick
            test_asm_program_with_globals;
        ] );
      ( "peephole",
        [
          Alcotest.test_case "preserves semantics" `Quick
            test_peephole_preserves_semantics;
          Alcotest.test_case "shrinks code" `Quick test_peephole_shrinks;
          Alcotest.test_case "specific rewrites" `Quick test_peephole_rewrites;
        ] );
      ( "interp",
        [
          Alcotest.test_case "div by zero traps" `Quick test_trap_div_zero;
          Alcotest.test_case "fuel exhaustion" `Quick test_trap_fuel;
          Alcotest.test_case "bad memory traps" `Quick test_trap_bad_memory;
          Alcotest.test_case "abort traps" `Quick test_trap_abort;
          Alcotest.test_case "missing entry" `Quick test_missing_entry;
          Alcotest.test_case "call trace" `Quick test_on_call_trace;
          Alcotest.test_case "more than 1024 functions trap" `Quick
            test_trap_too_many_functions;
          Alcotest.test_case "session memory fresh per repeat" `Quick
            test_session_memory_fresh_per_repeat;
        ] );
      ( "exec",
        [
          qcheck prop_alu_norm_range;
          qcheck prop_mem_roundtrip;
          qcheck prop_byte_load_sign_extends;
        ] );
    ]
