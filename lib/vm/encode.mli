(** Binary encoding of OmniVM code, and the field-level view of
    instructions that the BRISC compressor specializes over.

    Encoding layout per instruction: one opcode byte (the opcode selects
    the instruction shape {e and} the byte width of each immediate field),
    then register fields packed two-per-byte as nibbles, then immediate
    fields in their selected widths (1/2/4 bytes, little-endian), then
    label/symbol fields as ULEB128 indices into per-function label /
    program symbol tables. This reproduces the paper's size accounting:
    [ld.iw n0,4(sp)] is 3 bytes, [mov.i n2,n0] is 2, [enter sp,sp,24]
    is 3 (the two [sp] fields are explicit — redundancy the compressor
    exploits by burning them in). *)

type field =
  | Freg of Isa.reg
  | Fimm of int
  | Flab of string
  | Fsym of string

val fields : Isa.instr -> field list
(** The instruction's operand fields in left-to-right order. [Label]
    pseudo-instructions have no fields. *)

val rebuild : Isa.instr -> field list -> Isa.instr
(** Replace the fields of an instruction (shape unchanged).
    @raise Invalid_argument on arity or kind mismatch. *)

val base_key : Isa.instr -> string
(** Shape identifier with all fields abstracted, e.g. ["ld.iw"],
    ["add.i"], ["ble.i/imm"]. Two instructions with equal [base_key]
    accept each other's field lists. *)

val field_bits : field -> int
(** Size in bits used by this field in the base encoding: 4 for
    registers, 8/16/32 for immediates by value, 8 for labels/symbols. *)

val encoded_size : Isa.instr -> int
(** Bytes this instruction occupies in the base binary encoding
    (0 for [Label]). *)

val func_size : Isa.vfunc -> int
val program_size : Isa.vprogram -> int
(** Code bytes only (what the paper's "original input" counts). *)

module Reference : sig
  val encoded_size : Isa.instr -> int
  val func_size : Isa.vfunc -> int
  (** The original accounting over {!fields} lists; the differential
      oracle for {!encoded_size} and {!func_size}, which count the same
      bytes without building the lists. *)
end

val encode_program : Isa.vprogram -> string
(** Full self-describing binary image: symbol table, globals, and each
    function's label table and code. *)

val decode_program : string -> (Isa.vprogram, Support.Decode_error.t) result
(** Total inverse of {!encode_program}: counts and table indices are
    validated before allocation; corrupt input yields a typed [Error]. *)

val decode_program_exn : string -> Isa.vprogram
(** As {!decode_program} but raises {!Support.Decode_error.Fail}; for
    trusted inputs. *)

val shape_code : Isa.instr -> int
(** Stable numeric id of the instruction shape (exposed for the BRISC
    container, which serializes dictionary parts by shape). *)

val template_of_code : int -> Isa.instr
(** Inverse of {!shape_code}: a template instruction with zeroed fields.
    @raise Support.Decode_error.Fail on an unknown code. *)
