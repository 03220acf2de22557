(** Two-phase (levelized) compiled logic simulation of {!Netlist}
    circuits.

    A simulator instance owns the net value state.  At {!create} the
    topologically ordered combinational gates are lowered into a flat
    int-array program (opcode + operand net ids, fixed stride), so the
    steady-state evaluation loop touches only int arrays — no list
    traversal, no per-gate pattern match, no allocation.  Combinational
    evaluation propagates input values through that program;
    {!clock_cycle} additionally latches every DFF, implementing standard
    synchronous semantics (all flops update simultaneously from their
    pre-clock D values).

    The pre-compile gate-list interpreter lives on as the test-only
    reference [test/reference/logic_interp.ml], which the equivalence
    property tests and the before/after microbenchmarks run against. *)

type t

val create : Netlist.t -> t
(** Validates, topo-orders and compiles the netlist.
    @raise Invalid_argument if the combinational part is cyclic. *)

val set_input : t -> string -> int -> unit
(** Values are truthy: any nonzero is 1.  @raise Invalid_argument
    naming the offending signal on an unknown input name. *)

val eval : t -> unit
(** Propagate combinational logic from current inputs and flop states. *)

val output : t -> string -> int
(** Read a primary output (after {!eval}).  @raise Invalid_argument
    naming the offending signal on an unknown output name. *)

val clock_cycle : t -> unit
(** One synchronous cycle: evaluate, then latch all DFFs from their D
    inputs, then evaluate again so outputs reflect the new state. *)

val cycles_run : t -> int

val reset : t -> unit
(** Clear all net values and flop states to 0 (constant-1 net stays 1). *)

val run_vectors :
  t -> inputs:string list -> int list list -> (string * int list) list
(** {!reset}, then apply each input vector (values parallel to
    [inputs]), run {!clock_cycle}, and collect each primary output's
    waveform.  Repeated calls are independent experiments. *)

(** {2 Snapshot / restore}

    The complete mutable state of a compiled simulator is the net-value
    array (DFF states live in it — each flop's Q is just a net) plus
    the cycle counter; the compiled program, flop index arrays and name
    tables are immutable after {!create}.  A snapshot copies exactly
    that state, so [snapshot; perturb; restore] is observational
    identity. *)

type snap

val snapshot : t -> snap

val restore : t -> snap -> unit
(** Rewind net values (including every DFF) and the cycle counter.
    @raise Invalid_argument if the snapshot came from a simulator over
    a netlist with a different net count. *)
