(** Reference interpreter for OmniVM code.

    Executes a {!Isa.vprogram} over a flat byte memory: globals are laid
    out from {!data_base} upwards, the stack occupies the top of memory
    and grows down, and every function gets a synthetic code address so
    function pointers stored in memory work. All arithmetic is 32-bit
    two's-complement (values are kept sign-extended in 63-bit OCaml
    ints). Division by zero and memory accesses outside the image raise
    {!Runtime_error}.

    The interpreter doubles as the semantic oracle for the BRISC
    interpreter and the native-code simulator: all three must produce the
    same outputs and exit codes on the corpus (tested in
    [test/test_exec.ml]). *)

exception Runtime_error of string

type result = {
  exit_code : int;        (** return value of [main] *)
  output : string;        (** bytes written via [putchar]/[print_int] *)
  steps : int;            (** instructions executed *)
}

val data_base : int
val default_mem_size : int

val run :
  ?mem_size:int ->
  ?input:string ->
  ?fuel:int ->
  ?entry:string ->
  ?on_call:(int -> unit) ->
  ?on_label:(int -> string -> unit) ->
  Isa.vprogram ->
  result
(** Run starting at [entry] (default ["main"], called with no
    arguments). [input] feeds [getchar] (EOF = -1 afterwards). [fuel]
    bounds executed instructions (default 200 million). [on_call] fires
    with the callee's function index at the entry call and at every
    direct or indirect call (the paging scenario's reference trace);
    [on_label] fires with (function index, label) each time a [Label]
    executes — together they are the block-level profile the
    hot-layout pass consumes (see {!Profile} and {!Layout}).
    @raise Runtime_error on traps, unknown entry, fuel exhaustion, or a
    program whose return addresses would not fit their word: more than
    1024 functions, or a function of 2{^20} or more instructions. *)

(** {2 Demand-paged execution}

    The dispatch loop reaches code only through a fetch callback,
    invoked at entry and at each control transfer into a function —
    never per instruction — so a {!Pager}-backed fetch gives
    fault-on-first-touch execution of compressed images: the scenario
    layer binds chunked-wire chunks to frames this way
    (Scenario.Paged). The executing frame is held by the loop between
    transfers, so the pager may evict the current function; the next
    transfer back into it faults it in again. *)

type frame
(** One function's code, flattened and label-indexed for dispatch. *)

val prepare_func : Isa.vfunc -> frame

type paged_code = {
  names : string array;  (** function name of each index, defines the
                             symbol table (calls resolve against it) *)
  globals : (string * int * int list option) list;
  fetch : int -> frame;
      (** called at entry and per control transfer; may decompress, and
          may raise (e.g. [Support.Decode_error.Fail] from a corrupt
          chunk) — the raise surfaces to {!run_code}'s caller *)
}

val run_code :
  ?mem_size:int ->
  ?input:string ->
  ?fuel:int ->
  ?entry:string ->
  ?on_call:(int -> unit) ->
  ?on_label:(int -> string -> unit) ->
  paged_code ->
  result
(** As {!run}, over fetched code. [run p] is [run_code] with an eager
    array fetch. *)

val run_session :
  ?mem_size:int ->
  ?input:string ->
  ?fuel:int ->
  ?entry:string ->
  repeat:int ->
  paged_code ->
  result
(** [run_session ~repeat code] runs [code] [repeat] times, as
    {!run_code} would, and returns the last run's result. The runs share
    one memory buffer, zeroed before each: every run starts from
    all-zero memory. A paged session's repeats run here, so the code
    [fetch] serves (and its cache) carries over from run to run.
    @raise Invalid_argument if [repeat < 1]. *)

val global_address : Isa.vprogram -> string -> int
(** Address a global would get under this interpreter's layout (exposed
    so tests can poke memory). *)
