(** Finite-state machines with datapaths — the register-transfer-level
    hardware model.

    An FSMD executes one state per clock cycle: all actions of the
    current state fire in parallel (right-hand sides read pre-cycle
    register values), then the first transition whose guard is true
    selects the next state.  Channel actions ([ARecv]/[ASend]) delegate
    to the environment and may block, which models a hardware thread
    stalled on a FIFO handshake — the execution model of the paper's
    custom co-processors (§4.5/§4.6).

    FSMDs are produced three ways: by hand (device models), by the HLS
    controller generator ({!Codesign_hls.Controller}), and by interface
    synthesis.  {!area} feeds the cost models. *)

type expr =
  | Const of int
  | Reg of string
  | Inp of string  (** named input port, sampled combinationally *)
  | Bin of Codesign_ir.Cdfg.opcode * expr * expr
      (** only 2-operand arithmetic opcodes are allowed *)
  | Un of Codesign_ir.Cdfg.opcode * expr
      (** [Neg] or [Not] *)

type action =
  | Set of string * expr  (** register transfer *)
  | AOut of string * expr  (** drive a named output port *)
  | ARecv of string * string  (** [ARecv (reg, chan)]: may block *)
  | ASend of string * expr  (** [ASend (chan, e)]: may block *)

type transition = { guard : expr option; target : string }

type state = {
  sname : string;
  actions : action list;
  trans : transition list;
      (** evaluated in order; [guard = None] always fires; an empty list
          or no firing guard means the machine halts in this state *)
}

type t = {
  name : string;
  states : state list;
  start : string;
}

(** Execution environment. *)
type env = {
  input : string -> int;
  output : string -> int -> unit;
  recv : string -> int;
  send : string -> int -> unit;
  tick : unit -> unit;  (** called once per state-cycle *)
}

val null_env : env

val make : ?name:string -> start:string -> state list -> t
(** Validates: state names unique, transitions target existing states,
    start exists, expression opcodes are arithmetic.
    @raise Invalid_argument otherwise. *)

val n_states : t -> int

val registers : t -> string list
(** All register names written or read, sorted. *)

type run_result = {
  cycles : int;  (** states executed *)
  final_regs : (string * int) list;
  halted_in : string;
}

val run :
  ?env:env ->
  ?regs:(string * int) list ->
  ?max_cycles:int ->
  t ->
  run_result
(** Interpret from [start] with the given initial register values
    (missing registers start at 0).  Stops when no transition fires, or
    traps via @raise Invalid_argument when [max_cycles] (default
    1_000_000) is exceeded. *)
