(** A small behavioural specification language — the "common specification"
    from which both hardware and software implementations are derived.

    The same [proc] can be:
    - run directly ({!run}) to obtain reference semantics,
    - compiled to assembly for the instruction-set processor
      ({!Codesign_isa.Codegen} — the software path), or
    - elaborated into a {!Cdfg.t} ({!elaborate}) and pushed through
      high-level synthesis ({!Codesign_hls.Hls} — the hardware path).

    Differential testing of the three paths against each other is the
    framework's core correctness argument (see [test/test_ir.ml] and the
    fuzzer of [lib/fuzz]).

    {!run_cps} compiles the proc once per call into continuation-passing
    closures over an [int] array that holds every scalar, so a
    statement costs a few closure calls rather than a tree walk with
    string-keyed lookups, and a behaviour can pause at any tick or
    channel operation and be resumed later by whoever holds its
    continuation — a kernel callback process, say.  {!run} is its direct
    adapter.  The tree-walking interpreter they replaced is kept in
    [test/reference] ([Codesign_reference.Behavior_interp]); QCheck
    properties hold both forms to it: the same results, the same
    sequence of [tick] and [io] calls, and the same errors at the same
    tick.

    Semantics: all values are boxed OCaml [int]s treated as 32-bit-ish
    integers (no overflow wrapping is performed; workloads stay in
    range).  [Div]/[Rem] by zero yield 0, matching the ISS.  Booleans are
    0/1.  Arrays are fixed-size, zero-initialised, with index clamping to
    bounds (again matching the ISS's protected mode). *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Lt
  | Le
  | Eq
  | Ne

type expr =
  | Int of int
  | Var of string
  | Idx of string * expr  (** array element read *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Not of expr  (** logical: 0 -> 1, nonzero -> 0 *)
  | Ext of int * expr * expr * expr
      (** application-specific extension operation (ASIP rewrite):
          [Ext (op, acc, a, b)] evaluates to the extension's semantics
          applied to the three operands; compiles to a [Custom]
          read-modify-write instruction whose destination register is
          preloaded with [acc].  Interpreted via {!run}'s [ext]
          evaluator; rejected by {!elaborate} (the rewrite exists only
          on the software path). *)

type stmt =
  | Assign of string * expr
  | Store of string * expr * expr  (** [Store (a, i, v)]: [a.(i) <- v] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list * int
      (** condition, body, expected trip count (estimation only) *)
  | For of string * expr * expr * stmt list
      (** [For (v, lo, hi, body)] runs body for v = lo .. hi-1 *)
  | PortOut of int * expr  (** write a value to an output port *)
  | PortIn of string * int  (** read an input port into a variable *)
  | Send of string * expr  (** send on a named channel *)
  | Recv of string * string  (** [Recv (v, ch)]: receive from [ch] into [v] *)

type proc = {
  name : string;
  params : string list;  (** inputs bound before execution *)
  arrays : (string * int) list;  (** array name, fixed length *)
  results : string list;  (** variables read back after execution *)
  body : stmt list;
}

(** Environment connecting a running behaviour to the outside world. *)
type io = {
  port_in : int -> int;
  port_out : int -> int -> unit;
  send : string -> int -> unit;
  recv : string -> int;
}

val null_io : io
(** Ports read 0, writes and channel traffic are discarded;
    [recv] returns 0. *)

val eval_bin : binop -> int -> int -> int
(** The reference arithmetic: [Div]/[Rem] by zero yield 0, shift amounts
    are masked to 5 bits, comparisons yield 0/1.  Exposed so other
    implementation paths (constant folding in {!Codesign_isa.Codegen},
    the differential fuzzer oracle) share one definition. *)

val clamp_index : int -> int -> int
(** [clamp_index len i] clamps [i] into [0, len-1] — the protected-mode
    array-access rule every execution level implements. *)

val collecting_io : unit -> io * (int * int) list ref
(** An [io] whose [port_out] appends [(port, value)] to the returned list
    (in program order); other operations behave as {!null_io}. *)

val run :
  ?io:io ->
  ?ext:(int -> int -> int -> int -> int) ->
  ?tick:(unit -> unit) ->
  ?fuel:int ->
  proc ->
  (string * int) list ->
  (string * int) list
(** [run p bindings] executes [p] with [params] bound from [bindings]
    (missing params default to 0) and returns the [results] variables.
    Bindings named ["a[i]"] pre-load array cells.  It is {!run_cps}
    with a scheduler that continues at once.  [ext] evaluates
    {!Ext} nodes as [ext op acc a b] (default: raises); [tick] is called
    once per executed statement and once per loop iteration (timed
    co-simulation hook); [fuel] bounds the number of ticks (default
    [10_000_000]).  Operands are evaluated left to right.
    @raise Invalid_argument on an array of length <= 0, a binding to an
    unknown array, an access to an unbound array (when it runs) or
    exhausted fuel. *)

(** What a {!run_cps} behaviour does at each point where it may pause.
    Each operation is handed the rest of the behaviour as a
    continuation, which it must call exactly once, at once or later. *)
type scheduler = {
  tick : (unit -> unit) -> unit;
      (** once per executed statement and loop iteration, as {!run}'s
          [tick] *)
  port_in : int -> int;
  port_out : int -> int -> unit;
  send : string -> int -> (unit -> unit) -> unit;
      (** applied to its channel name once per [Send] statement, when
          the behaviour is compiled; the function that returns is
          called, with the value and the continuation, each time the
          statement runs — so a scheduler can resolve the name once,
          when the statement first runs *)
  recv : string -> (int -> unit) -> unit;
      (** applied to its channel name once per [Recv] statement, as
          [send] is *)
}

val run_cps :
  ?ext:(int -> int -> int -> int -> int) ->
  ?fuel:int ->
  scheduler ->
  proc ->
  (string * int) list ->
  ((string * int) list -> unit) ->
  unit
(** [run_cps sched p bindings finish] compiles [p] and runs it with
    [sched], then passes the [results] variables to [finish].  It
    returns when the behaviour ends or pauses in a scheduler operation
    that keeps its continuation for later.  Bindings, [ext], [fuel],
    evaluation order and errors are those of {!run}; an error raises
    from whichever call is running the behaviour at that point.  Every
    continuation and scheduler call is a tail call, so a scheduler that
    continues at once runs any behaviour in constant stack. *)

val elaborate : proc -> Cdfg.t
(** Structural elaboration into a CDFG: every loop body and branch arm
    becomes a block whose [trip] is the product of enclosing expected
    trip counts ([For] over constant bounds contributes [hi-lo]; [While]
    contributes its annotation; branch arms contribute 1 each).  Channel
    and port operations become [Read]/[Write] ops on reserved names
    ["port:N"] / ["chan:C"]. *)

val static_stmts : proc -> int
(** Static statement count (a code-size proxy). *)

val vars_of : proc -> string list
(** All scalar variable names mentioned, sorted, params first. *)

val pp : Format.formatter -> proc -> unit
(** Pretty-prints the behaviour in a C-like concrete syntax. *)

val pp_expr : Format.formatter -> expr -> unit
