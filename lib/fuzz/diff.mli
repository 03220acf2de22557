(** The differential oracle: one generated input, every abstraction
    level, zero disagreement.

    {!check_behavior} runs a closed behaviour through the four
    implementation paths that claim identical function:

    + the {!Codesign_ir.Behavior} interpreter (reference),
    + {!Codesign_isa.Codegen} + the cycle-counting CPU ISS — on {e both}
      execution tiers: the reference step loop is the leg compared
      against the interpreter, and the block-compiled tier
      ({!Codesign_isa.Cpu.run_compiled}) must additionally agree with
      the step tier on the complete machine state — status and trap
      message, cycles, instret, final pc, registers, data memory and
      port trace — whatever the outcome,
    + {!Codesign.Cosim.run_network} with the process mapped to software
      (ISS under the co-simulation kernel) and again mapped to hardware
      (timed behavioural thread),
    + {!Codesign_hls.Hls.synthesize_block} + {!Codesign_rtl.Fsmd.run}
      for every memory-free, io-hazard-free data-flow block, under two
      schedulers, against
      {!Codesign_hls.Controller.eval_block_reference}.

    Outcomes are compared as FNV-1a checksums over the (port, value)
    output trace and the result variables; any mismatch (or a trap,
    or an FSMD whose cycle count disagrees with its HLS report) is a
    disagreement.

    {!check_ladder} runs the echo system at all four Fig. 3 levels and
    asserts the paper's ladder invariants: identical functional
    checksum, events and activations non-increasing up the ladder, and
    simulated-time estimates within the flow tests' relative-error
    bounds of the pin-accurate count (abstracted timing can land on
    either side of it, so strict monotonicity only holds for simulator
    effort).

    {!check_taskgraph} cross-checks the partitioners on a random task
    graph: reported evaluations match a recomputation, budgets are
    respected, runs are deterministic, and on small graphs no heuristic
    beats {!Codesign.Partition.exhaustive}. *)

type outcome = {
  rtl_blocks : int;  (** FSMD blocks differentially executed *)
  error : string option;  (** [Some detail] on the first disagreement *)
}

val normalize : Codesign_ir.Behavior.proc -> Codesign_ir.Behavior.proc
(** Restrict [results] to variables the program still mentions — shrink
    candidates can delete every use of a result variable, and
    [Codegen.result] rejects unknown names. *)

val trace_checksum : (int * int) list -> (string * int) list -> string
(** FNV-1a hex over the port trace and result bindings (the functional
    fingerprint compared across levels). *)

val check_behavior :
  ?transform_asm:
    (Codesign_isa.Asm.item list -> Codesign_isa.Asm.item list) ->
  Codesign_ir.Behavior.proc ->
  outcome
(** [transform_asm] edits the compiled program before assembly — the
    bug-injection hook the test suite uses to prove the oracle catches
    a miscompile.  A fuel of 300_000 statements bounds the interpreter;
    a behaviour that exhausts it is reported as agreeing (vacuously) so
    the shrinker never chases infinite loops. *)

val check_ladder : Codesign_ir.Rng.t -> string option

val check_mixed : Codesign_ir.Rng.t -> string option
(** The mixed-assignment rung of the oracle: one random Fig. 3 grid
    point (plus a partner with a single component raised along an axis
    where cost must not grow) run through
    {!Codesign.Cosim.run_echo_assignment}.  Checks completion, checksum
    agreement with the pure-pin reference, [bus_ops = 0] exactly when
    both interfaces are at Message, that the same assignment rerun with
    a 64-cycle temporal-decoupling quantum still completes with the
    same checksum, and that events/activations did not increase for the
    raised partner. *)

val check_taskgraph : Codesign_ir.Rng.t -> string option
