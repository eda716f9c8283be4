(** Patternization of IR trees (§2, §3 of the paper).

    A pattern is a statement tree in which every literal operand has been
    replaced by a wildcard. [of_stmt] splits a statement into its pattern
    plus the literal values read off in prefix order, each tagged with its
    literal-stream class; [to_stmt] reassembles. Patterns serialize to a
    compact byte string, one byte per operator node in prefix order, which
    is both the wire format's on-the-wire shape for novel patterns and the
    hash key used to recognize repeated patterns. *)

type lit =
  | Lint of int      (** numeric literal: constant, frame offset *)
  | Lsym of string   (** symbolic literal: global name or label *)

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

val of_stmt : Tree.stmt -> spat * (Op.lit_class * lit) list
(** Pattern plus literals in prefix order. *)

val to_stmt : spat -> (Op.lit_class * lit) list -> Tree.stmt
(** Inverse of {!of_stmt}. @raise Failure if the literal list does not
    match the pattern's wildcard slots. *)

val to_stmt_pull : spat -> (Op.lit_class -> lit) -> Tree.stmt
(** [to_stmt_pull sp next] is [to_stmt sp (List.map (fun c -> (c, next
    c)) (lit_slots sp))] without building either list: [next] is called
    once per slot, in slot order, and any exception it raises escapes
    first. @raise Failure on a literal of the wrong kind (numeric where
    the slot is symbolic, or the reverse), once every slot is pulled. *)

val lit_slots : spat -> Op.lit_class list
(** The classes of the pattern's wildcard slots, in prefix order. *)

val spat_to_string : spat -> string
(** Paper-style rendering with [*] for wildcards, e.g.
    [ASGNI(ADDRLP8[*], SUBI(INDIRI(ADDRLP8[*]),CNSTC[*]))]. *)

val encode : spat -> string
(** One byte per operator node, prefix order. *)

val decode : ?stop:int -> string -> int ref -> spat
(** Read one pattern at [!pos], advancing [pos]; input ends at [stop]
    (default: the end of the string), so a pattern embedded in a larger
    buffer decodes in place. @raise Failure on malformed input. *)

val opcode_count : int
(** Size of the node-operator alphabet (exported for stream headers). *)

val compare : spat -> spat -> int
val equal : spat -> spat -> bool
val hash : spat -> int
