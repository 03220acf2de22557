(** Control/data-flow graphs — the fine-grain IR for high-level synthesis
    and ASIP instruction-set extension.

    A {!t} is a set of basic blocks connected by control edges.  Each
    block holds a pure data-flow graph of {!op} nodes; inter-block values
    flow through named variables ([Read]/[Write] nodes).  Loop blocks
    carry an expected trip count so downstream estimators can weight
    execution frequencies without profiling. *)

type opcode =
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
  | Lt  (** signed less-than, result 0/1 *)
  | Eq  (** equality, result 0/1 *)
  | Neg
  | Not
  | Const of int
  | Read of string  (** read a named variable or input port *)
  | Write of string  (** write a named variable or output port; 1 arg *)
  | Load of string  (** load [array.(arg0)] *)
  | Store of string  (** store [array.(arg0) <- arg1] *)

type op = {
  id : int;  (** dense within the block *)
  opcode : opcode;
  args : int list;  (** operand op ids, within the same block *)
}

type block = {
  label : string;
  ops : op list;  (** in dependence order: args refer to earlier ids *)
  trip : int;  (** expected executions per graph invocation (>= 0) *)
}

type t = {
  name : string;
  blocks : block list;
  ctrl : (string * string) list;  (** control-flow edges between labels *)
}

val make :
  ?name:string -> ?ctrl:(string * string) list -> block list -> t
(** Validates: labels unique; within each block, op ids dense [0..k-1] and
    args strictly refer to earlier ops with correct arity; control edges
    name existing labels.  @raise Invalid_argument otherwise. *)

val block_make : ?trip:int -> string -> op list -> block
(** [trip] defaults to 1. *)

val arity : opcode -> int
(** Number of operands each opcode consumes. *)

val is_arith : opcode -> bool
(** True for value-producing combinational operators (excludes
    [Const]/[Read]/[Write]/[Load]/[Store]). *)

val opcode_name : opcode -> string
(** Short mnemonic, e.g. ["mul"], ["ld"], ["const"]. *)

val op_mix : t -> (string * int) list
(** Trip-weighted operation counts over the whole graph, sorted by name —
    the operation-mix input to the sharing-aware hardware estimator. *)

val total_ops : t -> int
(** Trip-weighted dynamic operation count. *)

