type lit = Lint of int | Lsym of string

type pat =
  | Pcnst of Op.ty * Op.width
  | Paddrl of Op.width
  | Paddrf of Op.width
  | Paddrg
  | Pindir of Op.ty * pat
  | Pbinop of Op.ty * Op.binop * pat * pat
  | Pneg of Op.ty * pat
  | Pbcom of Op.ty * pat
  | Pcvt of Op.ty * Op.ty * pat
  | Pcall of Op.ty * pat

type spat =
  | Pasgn of Op.ty * pat * pat
  | Parg of Op.ty * pat
  | Pscall of Op.ty * pat
  | Pscnd of Op.relop * Op.ty * pat * pat
  | Pjump
  | Plabel
  | Pret of Op.ty * pat option

(* ---- patternize / reassemble ---- *)

let rec pat_of_tree t acc =
  match t with
  | Tree.Cnst (ty, w, v) -> (Pcnst (ty, w), (Op.Lc_cnst w, Lint v) :: acc)
  | Tree.Addrl (w, off) -> (Paddrl w, (Op.Lc_addrl w, Lint off) :: acc)
  | Tree.Addrf (w, off) -> (Paddrf w, (Op.Lc_addrf w, Lint off) :: acc)
  | Tree.Addrg name -> (Paddrg, (Op.Lc_addrg, Lsym name) :: acc)
  | Tree.Indir (ty, a) ->
    let p, acc = pat_of_tree a acc in
    (Pindir (ty, p), acc)
  | Tree.Binop (ty, op, a, b) ->
    let pa, acc = pat_of_tree a acc in
    let pb, acc = pat_of_tree b acc in
    (Pbinop (ty, op, pa, pb), acc)
  | Tree.Neg (ty, a) ->
    let p, acc = pat_of_tree a acc in
    (Pneg (ty, p), acc)
  | Tree.Bcom (ty, a) ->
    let p, acc = pat_of_tree a acc in
    (Pbcom (ty, p), acc)
  | Tree.Cvt (f, t_, a) ->
    let p, acc = pat_of_tree a acc in
    (Pcvt (f, t_, p), acc)
  | Tree.Call (ty, a) ->
    let p, acc = pat_of_tree a acc in
    (Pcall (ty, p), acc)

let of_stmt s =
  let finish sp acc = (sp, List.rev acc) in
  match s with
  | Tree.Sasgn (ty, a, v) ->
    let pa, acc = pat_of_tree a [] in
    let pv, acc = pat_of_tree v acc in
    finish (Pasgn (ty, pa, pv)) acc
  | Tree.Sarg (ty, t) ->
    let p, acc = pat_of_tree t [] in
    finish (Parg (ty, p)) acc
  | Tree.Scall (ty, t) ->
    let p, acc = pat_of_tree t [] in
    finish (Pscall (ty, p)) acc
  | Tree.Scnd (rel, ty, a, b, lbl) ->
    (* The label operand is read first (it prints before the operand
       trees, as in LEI[1](...)), then the tree literals. *)
    let pa, acc = pat_of_tree a [ (Op.Lc_label, Lsym lbl) ] in
    let pb, acc = pat_of_tree b acc in
    finish (Pscnd (rel, ty, pa, pb)) acc
  | Tree.Sjump lbl -> (Pjump, [ (Op.Lc_label, Lsym lbl) ])
  | Tree.Slabel lbl -> (Plabel, [ (Op.Lc_label, Lsym lbl) ])
  | Tree.Sret (ty, None) -> (Pret (ty, None), [])
  | Tree.Sret (ty, Some t) ->
    let p, acc = pat_of_tree t [] in
    finish (Pret (ty, Some p)) acc

(* [to_stmt] over literals pulled one at a time, in slot order, from
   [next], instead of a prebuilt (class, literal) list. A literal of the
   wrong kind does not stop the walk: every slot is still pulled, in the
   same order, and the first mismatch is raised at the end — so a
   failing [next] wins over a kind mismatch exactly as when the list is
   built before [to_stmt] checks it. Top-level functions threading
   [next] and the mismatch cell, so a statement allocates no closures:
   this runs once per statement on every demand-paging fault. *)
let pull_int (next : Op.lit_class -> lit) bad cls =
  match next cls with
  | Lint v -> v
  | Lsym _ ->
    if !bad = None then bad := Some "expected numeric literal";
    0

let pull_sym (next : Op.lit_class -> lit) bad cls =
  match next cls with
  | Lsym s -> s
  | Lint _ ->
    if !bad = None then bad := Some "expected symbolic literal";
    ""

let rec pull_tree next bad = function
  | Pcnst (ty, w) -> Tree.Cnst (ty, w, pull_int next bad (Op.Lc_cnst w))
  | Paddrl w -> Tree.Addrl (w, pull_int next bad (Op.Lc_addrl w))
  | Paddrf w -> Tree.Addrf (w, pull_int next bad (Op.Lc_addrf w))
  | Paddrg -> Tree.Addrg (pull_sym next bad Op.Lc_addrg)
  | Pindir (ty, a) -> Tree.Indir (ty, pull_tree next bad a)
  | Pbinop (ty, op, a, b) ->
    let ta = pull_tree next bad a in
    let tb = pull_tree next bad b in
    Tree.Binop (ty, op, ta, tb)
  | Pneg (ty, a) -> Tree.Neg (ty, pull_tree next bad a)
  | Pbcom (ty, a) -> Tree.Bcom (ty, pull_tree next bad a)
  | Pcvt (f, t_, a) -> Tree.Cvt (f, t_, pull_tree next bad a)
  | Pcall (ty, a) -> Tree.Call (ty, pull_tree next bad a)

let to_stmt_pull sp (next : Op.lit_class -> lit) =
  let bad = ref None in
  let stmt =
    match sp with
    | Pasgn (ty, a, v) ->
      let ta = pull_tree next bad a in
      let tv = pull_tree next bad v in
      Tree.Sasgn (ty, ta, tv)
    | Parg (ty, p) -> Tree.Sarg (ty, pull_tree next bad p)
    | Pscall (ty, p) -> Tree.Scall (ty, pull_tree next bad p)
    | Pscnd (rel, ty, a, b) ->
      let lbl = pull_sym next bad Op.Lc_label in
      let ta = pull_tree next bad a in
      let tb = pull_tree next bad b in
      Tree.Scnd (rel, ty, ta, tb, lbl)
    | Pjump -> Tree.Sjump (pull_sym next bad Op.Lc_label)
    | Plabel -> Tree.Slabel (pull_sym next bad Op.Lc_label)
    | Pret (ty, None) -> Tree.Sret (ty, None)
    | Pret (ty, Some p) -> Tree.Sret (ty, Some (pull_tree next bad p))
  in
  match !bad with
  | Some msg -> failwith ("Pattern.to_stmt: " ^ msg)
  | None -> stmt

let to_stmt sp lits =
  let rest = ref lits in
  let next cls =
    match !rest with
    | (cls', v) :: tl when cls' = cls ->
      rest := tl;
      v
    | _ -> failwith "Pattern.to_stmt: literal list does not match the slots"
  in
  let stmt = to_stmt_pull sp next in
  if !rest <> [] then failwith "Pattern.to_stmt: leftover literals";
  stmt

let lit_slots sp =
  (* Reuse of_stmt's ordering by rebuilding with dummy literals is not
     possible (we only have the pattern), so walk the pattern itself. *)
  let acc = ref [] in
  let push c = acc := c :: !acc in
  let rec walk = function
    | Pcnst (_, w) -> push (Op.Lc_cnst w)
    | Paddrl w -> push (Op.Lc_addrl w)
    | Paddrf w -> push (Op.Lc_addrf w)
    | Paddrg -> push Op.Lc_addrg
    | Pindir (_, a) | Pneg (_, a) | Pbcom (_, a) | Pcvt (_, _, a) | Pcall (_, a)
      -> walk a
    | Pbinop (_, _, a, b) ->
      walk a;
      walk b
  in
  (match sp with
  | Pasgn (_, a, v) ->
    walk a;
    walk v
  | Parg (_, p) | Pscall (_, p) -> walk p
  | Pscnd (_, _, a, b) ->
    push Op.Lc_label;
    walk a;
    walk b
  | Pjump | Plabel -> push Op.Lc_label
  | Pret (_, None) -> ()
  | Pret (_, Some p) -> walk p);
  List.rev !acc

(* ---- rendering ---- *)

let cnst_name ty w =
  match (ty, w) with
  | _, Op.W8 -> "CNSTC"
  | _, Op.W16 -> "CNSTS"
  | Op.P, Op.W32 -> "CNSTP"
  | _, Op.W32 -> "CNSTI"

let rec pat_to_string = function
  | Pcnst (ty, w) -> Printf.sprintf "%s[*]" (cnst_name ty w)
  | Paddrl w -> Printf.sprintf "ADDRLP%s[*]" (Op.width_suffix w)
  | Paddrf w -> Printf.sprintf "ADDRFP%s[*]" (Op.width_suffix w)
  | Paddrg -> "ADDRGP[*]"
  | Pindir (ty, a) ->
    Printf.sprintf "INDIR%s(%s)" (Op.ty_to_string ty) (pat_to_string a)
  | Pbinop (ty, op, a, b) ->
    Printf.sprintf "%s%s(%s,%s)" (Op.binop_to_string op) (Op.ty_to_string ty)
      (pat_to_string a) (pat_to_string b)
  | Pneg (ty, a) ->
    Printf.sprintf "NEG%s(%s)" (Op.ty_to_string ty) (pat_to_string a)
  | Pbcom (ty, a) ->
    Printf.sprintf "BCOM%s(%s)" (Op.ty_to_string ty) (pat_to_string a)
  | Pcvt (f, t, a) ->
    Printf.sprintf "CV%s%s(%s)" (Op.ty_to_string f) (Op.ty_to_string t)
      (pat_to_string a)
  | Pcall (ty, a) ->
    Printf.sprintf "CALL%s(%s)" (Op.ty_to_string ty) (pat_to_string a)

let spat_to_string = function
  | Pasgn (ty, a, v) ->
    Printf.sprintf "ASGN%s(%s, %s)" (Op.ty_to_string ty) (pat_to_string a)
      (pat_to_string v)
  | Parg (ty, p) ->
    Printf.sprintf "ARG%s(%s)" (Op.ty_to_string ty) (pat_to_string p)
  | Pscall (ty, p) ->
    Printf.sprintf "CALL%s(%s)" (Op.ty_to_string ty) (pat_to_string p)
  | Pscnd (rel, ty, a, b) ->
    Printf.sprintf "%s%s[*](%s,%s)" (Op.relop_to_string rel)
      (Op.ty_to_string ty) (pat_to_string a) (pat_to_string b)
  | Pjump -> "JUMPV[*]"
  | Plabel -> "LABELV"
  | Pret (_, None) -> "RETV"
  | Pret (ty, Some p) ->
    Printf.sprintf "RET%s(%s)" (Op.ty_to_string ty) (pat_to_string p)

(* ---- byte encoding: one opcode byte per node, prefix order ---- *)

type nodeop =
  | Ncnst of Op.ty * Op.width
  | Naddrl of Op.width
  | Naddrf of Op.width
  | Naddrg
  | Nindir of Op.ty
  | Nbinop of Op.ty * Op.binop
  | Nneg of Op.ty
  | Nbcom of Op.ty
  | Ncvt of Op.ty * Op.ty
  | Ncall of Op.ty
  | Nasgn of Op.ty
  | Narg of Op.ty
  | Nscall of Op.ty
  | Nscnd of Op.relop * Op.ty
  | Njump
  | Nlabel
  | Nret of Op.ty
  | Nretv

let value_tys = [ Op.I; Op.C; Op.S; Op.P ]
let widths = [ Op.W8; Op.W16; Op.W32 ]

let binops =
  [ Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Mod; Op.Band; Op.Bor; Op.Bxor; Op.Lsh;
    Op.Rsh ]

let relops = [ Op.Eq; Op.Ne; Op.Lt; Op.Le; Op.Gt; Op.Ge ]

let all_nodeops : nodeop array =
  let acc = ref [] in
  let add x = acc := x :: !acc in
  List.iter (fun ty -> List.iter (fun w -> add (Ncnst (ty, w))) widths) value_tys;
  List.iter (fun w -> add (Naddrl w)) widths;
  List.iter (fun w -> add (Naddrf w)) widths;
  add Naddrg;
  List.iter (fun ty -> add (Nindir ty)) value_tys;
  List.iter
    (fun op -> List.iter (fun ty -> add (Nbinop (ty, op))) [ Op.I; Op.P ])
    binops;
  add (Nneg Op.I);
  add (Nbcom Op.I);
  List.iter
    (fun (f, t) -> add (Ncvt (f, t)))
    [ (Op.C, Op.I); (Op.I, Op.C); (Op.S, Op.I); (Op.I, Op.S); (Op.P, Op.I);
      (Op.I, Op.P); (Op.C, Op.S); (Op.S, Op.C) ];
  List.iter (fun ty -> add (Ncall ty)) [ Op.I; Op.P ];
  List.iter (fun ty -> add (Nasgn ty)) value_tys;
  List.iter (fun ty -> add (Narg ty)) value_tys;
  List.iter (fun ty -> add (Nscall ty)) [ Op.I; Op.P; Op.V ];
  List.iter
    (fun rel -> List.iter (fun ty -> add (Nscnd (rel, ty))) [ Op.I; Op.P ])
    relops;
  add Njump;
  add Nlabel;
  List.iter (fun ty -> add (Nret ty)) value_tys;
  add Nretv;
  Array.of_list (List.rev !acc)

let opcode_count = Array.length all_nodeops

let code_of_nodeop : (nodeop, int) Hashtbl.t =
  let h = Hashtbl.create 128 in
  Array.iteri (fun i op -> Hashtbl.add h op i) all_nodeops;
  h

let opcode op =
  match Hashtbl.find_opt code_of_nodeop op with
  | Some c -> c
  | None -> failwith "Pattern.encode: operator outside the IR vocabulary"

let encode sp =
  let buf = Buffer.create 16 in
  let emit op = Buffer.add_char buf (Char.chr (opcode op)) in
  let rec walk = function
    | Pcnst (ty, w) -> emit (Ncnst (ty, w))
    | Paddrl w -> emit (Naddrl w)
    | Paddrf w -> emit (Naddrf w)
    | Paddrg -> emit Naddrg
    | Pindir (ty, a) ->
      emit (Nindir ty);
      walk a
    | Pbinop (ty, op, a, b) ->
      emit (Nbinop (ty, op));
      walk a;
      walk b
    | Pneg (ty, a) ->
      emit (Nneg ty);
      walk a
    | Pbcom (ty, a) ->
      emit (Nbcom ty);
      walk a
    | Pcvt (f, t, a) ->
      emit (Ncvt (f, t));
      walk a
    | Pcall (ty, a) ->
      emit (Ncall ty);
      walk a
  in
  (match sp with
  | Pasgn (ty, a, v) ->
    emit (Nasgn ty);
    walk a;
    walk v
  | Parg (ty, p) ->
    emit (Narg ty);
    walk p
  | Pscall (ty, p) ->
    emit (Nscall ty);
    walk p
  | Pscnd (rel, ty, a, b) ->
    emit (Nscnd (rel, ty));
    walk a;
    walk b
  | Pjump -> emit Njump
  | Plabel -> emit Nlabel
  | Pret (ty, None) ->
    ignore ty;
    emit Nretv
  | Pret (ty, Some p) ->
    emit (Nret ty);
    walk p);
  Buffer.contents buf

(* the node at [!pos]; input ends at [stop] *)
let next_node s pos stop =
  if !pos >= stop then failwith "Pattern.decode: truncated";
  let c = Char.code s.[!pos] in
  incr pos;
  if c >= opcode_count then failwith "Pattern.decode: bad opcode";
  all_nodeops.(c)

let rec decode_tree s pos stop =
  match next_node s pos stop with
  | Ncnst (ty, w) -> Pcnst (ty, w)
  | Naddrl w -> Paddrl w
  | Naddrf w -> Paddrf w
  | Naddrg -> Paddrg
  | Nindir ty -> Pindir (ty, decode_tree s pos stop)
  | Nbinop (ty, op) ->
    let a = decode_tree s pos stop in
    let b = decode_tree s pos stop in
    Pbinop (ty, op, a, b)
  | Nneg ty -> Pneg (ty, decode_tree s pos stop)
  | Nbcom ty -> Pbcom (ty, decode_tree s pos stop)
  | Ncvt (f, t) -> Pcvt (f, t, decode_tree s pos stop)
  | Ncall ty -> Pcall (ty, decode_tree s pos stop)
  | Nasgn _ | Narg _ | Nscall _ | Nscnd _ | Njump | Nlabel | Nret _ | Nretv ->
    failwith "Pattern.decode: statement opcode inside a tree"

let decode ?stop s pos =
  let stop = match stop with Some e -> e | None -> String.length s in
  let tree () = decode_tree s pos stop in
  match next_node s pos stop with
  | Nasgn ty ->
    let a = tree () in
    let v = tree () in
    Pasgn (ty, a, v)
  | Narg ty -> Parg (ty, tree ())
  | Nscall ty -> Pscall (ty, tree ())
  | Nscnd (rel, ty) ->
    let a = tree () in
    let b = tree () in
    Pscnd (rel, ty, a, b)
  | Njump -> Pjump
  | Nlabel -> Plabel
  | Nret ty -> Pret (ty, Some (tree ()))
  | Nretv -> Pret (Op.V, None)
  | Ncnst _ | Naddrl _ | Naddrf _ | Naddrg | Nindir _ | Nbinop _ | Nneg _
  | Nbcom _ | Ncvt _ | Ncall _ ->
    failwith "Pattern.decode: tree opcode at statement position"

let compare (a : spat) (b : spat) = Stdlib.compare a b
let equal (a : spat) (b : spat) = a = b
let hash (sp : spat) = Hashtbl.hash sp
