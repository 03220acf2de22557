(** Seeded random generation of well-formed fuzzing inputs.

    {!behavior} draws a closed {!Codesign_ir.Behavior.proc} — no
    parameters, no channels, no extension ops — that almost always
    terminates quickly: [While] loops are counter-bounded with a
    protected counter variable, [For] bounds are small constants or
    dynamically-computed values masked into a small range, and loop
    nesting is capped.  The one deliberate exception is the low-
    probability "steer an enclosing induction variable" assignment,
    which can pin a [For] below its bound forever; the differential
    oracle bounds every execution with fuel and treats exhaustion as a
    vacuously-agreeing case, so those draws cost time, not soundness.
    Array indices are deliberately {e not} kept in bounds: the
    protected-mode clamp is part of the semantics under test.  Every generated program ends by streaming its result
    variables out of port 0, so implementations that only expose a port
    trace (hardware-mapped processes) are comparable to the ones that
    also expose result variables.

    All draws come from the given {!Codesign_ir.Rng.t}; equal generator
    states give equal programs. *)

val behavior : Codesign_ir.Rng.t -> Codesign_ir.Behavior.proc

val echo_params : Codesign_ir.Rng.t -> int * int * int * int
(** (items, work, src_period, sink_period) for
    {!Codesign.Cosim.run_echo_assignment}, drawn from ranges around the
    defaults so device wait states stay material. *)

val net_spec : Codesign_ir.Rng.t -> Codesign_ir.Process_network.t
(** A random feed-forward process network for differential testing of
    the partitioned kernel: 2-4 layers of 1-3 hardware processes,
    channels only from a layer to a strictly later one (acyclic), every
    channel a latency channel (latency 1-4, so any partition cut has
    positive lookahead and sends never block), and exactly matched
    SDF-style traffic — each process runs a fixed round count, receiving
    one value per in-channel and sending one per out-channel per round —
    so the network always terminates for any channel depths and any
    partition map.  Every process accumulates a checksum in result
    variable ["sum"] and emits it on port 1. *)

val tgff_spec : Codesign_ir.Rng.t -> Codesign_workloads.Tgff.spec
(** A random task-graph spec: 4-14 tasks, 2-5 layers, varying edge
    densities, cycle ranges and deadline tightness. *)
