(** Gate-level netlists — the lowest hardware abstraction in the
    framework.

    Used for the "glue logic" of Type I systems (paper §4.1): address
    decoders, synchronisers and status registers produced by interface
    synthesis are emitted as netlists, simulated with {!Logic_sim} and
    costed by gate count.

    Nets are dense integer ids created through the builder; gates connect
    existing nets.  Net 0 is constant 0 and net 1 is constant 1. *)

type gate_kind =
  | And
  | Or
  | Xor
  | Nand
  | Nor
  | Not
  | Buf
  | Mux  (** inputs [sel; a; b]: output = if sel=0 then a else b *)
  | Dff  (** input [d]; output updates on {!Logic_sim.clock_cycle} *)

type gate = { kind : gate_kind; inputs : int list; output : int }

type t = {
  name : string;
  n_nets : int;
  gates : gate list;  (** in creation order *)
  inputs : (string * int) list;  (** primary inputs *)
  outputs : (string * int) list;  (** primary outputs *)
}

val area : t -> int
val gate_count : t -> int
val dff_count : t -> int

val validate : t -> unit
(** Checks arities, net ranges, single driver per net, and that no net is
    driven that is also a primary input or a constant.
    @raise Invalid_argument on violation. *)

val is_combinational_dag : t -> bool
(** True when the combinational part (ignoring [Dff] outputs, which break
    cycles) is acyclic — the precondition for {!Logic_sim}. *)

(** Imperative construction API. *)
module Builder : sig
  type b

  val create : ?name:string -> unit -> b

  val const0 : int
  val const1 : int

  val input : b -> string -> int
  (** Declare a primary input net. *)

  val gate : b -> gate_kind -> int list -> int
  (** Create a gate driving a fresh net; returns the output net. *)

  val and2 : b -> int -> int -> int
  val or2 : b -> int -> int -> int
  val xor2 : b -> int -> int -> int
  val not1 : b -> int -> int
  val mux : b -> sel:int -> a:int -> b_in:int -> int
  val dff : b -> int -> int

  val and_many : b -> int list -> int
  (** Balanced AND tree; [and_many [] = const1]. *)

  val output : b -> string -> int -> unit
  (** Declare a primary output connected to an existing net. *)

  val finish : b -> t
  (** Validates and returns the netlist. *)
end

val decoder : width:int -> match_value:int -> unit -> t
(** A [width]-bit equality decoder named ["decoder"]: output ["hit"] is
    1 iff inputs [a0..a(width-1)] encode [match_value] (LSB first) — the
    canonical address-decode glue block. *)
