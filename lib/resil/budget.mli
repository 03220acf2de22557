(** Execution budgets: bound any run in simulated fuel {e and} wall
    time, and get a structured outcome instead of a hang or a raise.

    A budget pairs an optional fuel allowance (simulated time units for
    a kernel, instruction steps for a CPU, clock cycles for an RTL
    simulator) with an optional absolute wall-clock deadline.  The
    runners below ({!run_kernel}, {!run_cpu}, {!run_logic}) consume it
    and return {!outcome}: [Done] when the workload finished inside the
    budget, [Exhausted] when a bound was hit with work remaining — the
    caller decides whether that means retry from a snapshot
    ({!Supervisor}), a degraded report cell
    ({!Codesign_obs.Degraded}), or an error.

    Determinism: fuel bounds are in simulated units, so fuel-exhausted
    outcomes are pure functions of the workload.  Deadlines read the
    monotonic clock and are inherently racy with respect to simulated
    progress — use them as a safety net (CI, the service daemon), never
    as part of a byte-compared report. *)

type exhausted =
  | Fuel  (** the simulated-units allowance ran out *)
  | Deadline  (** the wall-clock deadline passed *)

val exhausted_name : exhausted -> string
(** ["fuel"] / ["deadline"]. *)

type 'a outcome = Done of 'a | Exhausted of exhausted

type t

val create : ?fuel:int -> ?deadline_ms:int -> unit -> t
(** [fuel] is an allowance of simulated units (unbounded when absent);
    [deadline_ms] fixes an absolute deadline [deadline_ms] milliseconds
    from now on the monotonic clock (none when absent).
    @raise Invalid_argument on a non-positive fuel or deadline. *)

val unlimited : unit -> t
(** No bounds: every runner returns [Done]. *)

val with_fuel : t -> fuel:int -> t
(** A fresh fuel allowance sharing [t]'s absolute deadline — the
    campaign shape: one wall deadline over the whole sweep, a fuel
    window per cell. *)

val is_unlimited : t -> bool

val spend : t -> int -> unit
(** Consume fuel (clamped at zero). *)

val fuel_left : t -> int option

val past_deadline : t -> bool
(** Has the wall deadline passed?  A pure read of the monotonic clock —
    safe from any domain, used by {!Codesign_fuzz} to cut off queued
    cases. *)

val check : t -> (unit, exhausted) result
(** [Error Fuel] when the allowance is spent, else [Error Deadline]
    when the deadline has passed, else [Ok ()]. *)

val stop_poll : t -> unit -> bool
(** A predicate for {!Codesign_sim.Kernel.run}'s [?stop]: true once the
    deadline passes.  Reads the wall clock only every 256th call so the
    per-event cost is a decrement.  (Fuel is enforced via [until], not
    via this predicate.)  A run with [stop] queues every
    {!Codesign_sim.Kernel.wait}, so deadline-bounded runs never advance
    the clock in place: they pay a queue push and pop per wait where a
    fuel-only run would not. *)

val run_kernel :
  t ->
  ?expect_quiescent:bool ->
  Codesign_sim.Kernel.t ->
  Codesign_sim.Kernel.stats outcome
(** Run the kernel for at most [fuel] simulated time units (window
    starting at the kernel's current clock) under the wall deadline.
    [Done stats] iff the event queue drained inside both bounds.  On
    [Exhausted Fuel] the full fuel window is charged (the kernel clock
    coasts to the bound, matching {!Codesign_sim.Kernel.run}'s
    bounded-run contract); on [Exhausted Deadline] the clock stays at
    the interruption point.  Either way the kernel is intact — state
    can be inspected, snapshot or restored. *)

val run_cpu : t -> Codesign_isa.Cpu.t -> Codesign_isa.Cpu.status outcome
(** Run the ISS until it halts/traps or the budget runs out, on the
    block-compiled tier ({!Codesign_isa.Cpu.run_blocks}; fuel = steps
    per that function's contract — retired instructions, interrupt
    entries and trapping accesses; the deadline is checked between
    4096-step slices).  [Done status] is never [Running]. *)

val run_logic :
  t -> Codesign_rtl.Logic_sim.t -> cycles:int -> int outcome
(** Clock the compiled netlist [cycles] times under the budget (fuel =
    clock cycles; deadline checked between 1024-cycle chunks).  [Done
    n] / [Exhausted _] with [n] cycles actually run recoverable via
    {!Codesign_rtl.Logic_sim.cycles_run}. *)
