(** Fault-mode oracles for the differential fuzzer ([lib/fuzz]'s
    [--fault] mode): properties of the fault machinery itself that must
    hold for {e every} seed.

    {!check_campaign} draws a random sweep budget (seed, 8–63 ops, a
    0–63-transfer warm-up, the default [cell_fuel] or 200–4,999 units,
    0–2 retries, no chaos, a trap or a hang), sweeps it on both engines
    and checks (a) fork = rerun — equal cell lists, degraded cells and
    their [elapsed] included, a mismatch naming the first cell that
    differs — and (b) the accounting invariants every completed cell
    must satisfy (losses never exceed faulted ops, faulted ops never
    exceed ops, a zero fault rate is loss-free with a clean checksum,
    rates stay within [0, 1]).

    {!check_transport} is the shrinkable one: it runs a generated
    behaviour's output trace through the ARQ pipe of {!Faulty_chan}
    under fault injection and demands the trace arrive intact and in
    order — the retry budget is sized so the protocol must win at the
    rates drawn here.  Any divergence is a minimisable counterexample
    (the behaviour is the shrink candidate). *)

val check_campaign : Codesign_ir.Rng.t -> string option
(** [None] when all properties hold; [Some detail] otherwise. *)

val check_transport :
  seed:int -> Codesign_ir.Behavior.proc -> string option
(** Deterministic in [(seed, proc)]. *)
