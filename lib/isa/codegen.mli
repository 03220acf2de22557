(** The software implementation path: compiles a {!Codesign_ir.Behavior}
    process to host assembly.

    The generated code follows a simple, predictable discipline so its
    cycle counts are a stable software-cost model for the partitioners:

    - scalar variables and arrays live in a static data segment
      (word-addressed, from word 4096);
    - expressions evaluate on a register stack (r8-r27); programs whose
      expressions nest deeper than 20 are rejected;
    - every loop head and join point is labelled, so the profiler can
      attribute cycles to source constructs;
    - channel operations compile to port I/O on the ports given in
      [chan_ports] — in co-simulation these ports are wired to bus
      transactions or kernel channels.

    The compiled code matches {!Codesign_ir.Behavior.run} semantics
    exactly — it is differentially fuzzed against the interpreter (see
    [lib/fuzz]).  In particular:

    - array indices are clamped into bounds like the interpreter's
      protected mode: constant indices are clamped at compile time,
      indices provably in bounds by a small interval analysis compile
      without overhead, and everything else gets a 2-branch runtime
      clamp (scratch register r7);
    - a [For] bound is evaluated once, before the loop (non-constant
      bounds are hoisted into registers r1-r6, one per nesting level;
      deeper dynamic-bound nesting is rejected), and the induction
      variable is written only at the top of iterations that run, so
      the final increment is not observable after the loop. *)

type layout = {
  base : int;  (** data segment base (word address) *)
  var_addr : (string * int) list;  (** scalar -> absolute word address *)
  arr_addr : (string * int) list;  (** array -> base word address *)
  data_words : int;  (** total data segment size *)
}

val compile :
  ?chan_ports:(string * int) list ->
  Codesign_ir.Behavior.proc ->
  Asm.item list * layout
(** Compile to symbolic assembly ending in [halt].
    @raise Invalid_argument on expression nesting deeper than the
    register stack, or on a channel operation with no port mapping. *)

val resolve : layout -> (string * int) list -> (int * int) list
(** Resolves symbolic parameter bindings to [(absolute word address,
    value)] writes; array cells use the ["name[index]"] key convention
    of {!Codesign_ir.Behavior.run}.  Unknown scalars are tolerated
    (dropped), unknown arrays raise.  Callers that rerun the same
    workload many times (benchmarks, steady-state co-simulation) can
    resolve once and replay the writes without re-parsing the keys.
    @raise Invalid_argument on an unknown array name. *)

val bind : layout -> Cpu.t -> (string * int) list -> unit
(** [resolve] + the writes, in one step. *)

val result : layout -> Cpu.t -> string -> int
(** Reads a scalar variable back from CPU memory. *)

exception Trapped of { proc : string; pc : int; msg : string }
(** The CPU trapped while executing a compiled behaviour: which
    behaviour, the program counter at the trap, and the CPU's trap
    message.  Raised by {!run_compiled} (and by
    [Codesign.Hotspot.analyze], which profiles through it) instead of a
    bare [Failure] so callers can distinguish a trapping workload from
    other failures and report the faulting site. *)

val run_compiled :
  ?env:Cpu.env ->
  Codesign_ir.Behavior.proc ->
  (string * int) list ->
  (string * int) list * Cpu.t
(** Convenience: compile, assemble, bind, run to halt under
    {!Cpu.run}'s default fuel, and return the [results] variables plus
    the CPU (for cycle counts).
    @raise Trapped if the CPU traps. *)
