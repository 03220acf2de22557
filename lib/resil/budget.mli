(** Execution budgets: bound a kernel run in simulated fuel {e and}
    wall time, and get a structured outcome instead of a hang or a
    raise.

    A budget pairs an optional fuel window (simulated time units) with
    an optional absolute wall-clock deadline.  {!create} fixes the
    deadline; {!with_fuel} is the one way to add a fuel window, sharing
    that deadline.  {!run_kernel} consumes
    it and returns {!outcome}: [Done] when the workload finished inside
    the budget, [Exhausted] when a bound was hit with work remaining —
    the caller decides whether that means a retry ({!Supervisor}), a
    degraded report cell
    ({!Codesign_obs.Degraded}), or an error.

    Determinism: fuel bounds are in simulated units, so fuel-exhausted
    outcomes are pure functions of the workload.  Deadlines read the
    monotonic clock and are inherently racy with respect to simulated
    progress — use them as a safety net (CI, a long sweep), never as
    part of a byte-compared report. *)

type exhausted =
  | Fuel  (** the simulated-time window ran out *)
  | Deadline  (** the wall-clock deadline passed *)

val exhausted_name : exhausted -> string
(** ["fuel"] / ["deadline"]. *)

type 'a outcome = Done of 'a | Exhausted of exhausted

type t

val create : ?deadline_ms:int -> unit -> t
(** A budget without fuel: [deadline_ms] fixes an absolute deadline
    [deadline_ms] milliseconds from now on the monotonic clock (none
    when absent).
    @raise Invalid_argument on a non-positive deadline. *)

val with_fuel : t -> fuel:int -> t
(** A [fuel]-unit simulated-time window for each {!run_kernel} (a run
    does not use it up), sharing [t]'s absolute deadline — the campaign
    shape: one wall deadline over the whole sweep, a fuel window per
    cell attempt.
    @raise Invalid_argument on a non-positive fuel. *)

val past_deadline : t -> bool
(** Has the wall deadline passed?  A pure read of the monotonic clock —
    safe from any domain, used by {!Supervisor.run} to cut off work not
    yet started, retries included. *)

val run_kernel :
  t -> Codesign_sim.Kernel.t -> Codesign_sim.Kernel.stats outcome
(** Run the kernel under the budget: to
    [Codesign_sim.Kernel.Until (now + fuel)] when a fuel window is
    set (the window starts at the kernel's current clock), to
    [Codesign_sim.Kernel.Quiesce] when none is, and interrupted at the
    wall deadline through the run's [stop] predicate (which reads the
    clock only every 256th event).  [Done stats] iff the event queue
    drained inside both bounds.  On [Exhausted Fuel] the kernel clock
    has coasted to the end of the window (per the [Until] contract); on
    [Exhausted Deadline] it stays at the interruption point.  Either way
    the kernel is intact — state can be inspected, snapshot or
    restored.  A run with a deadline queues
    every {!Codesign_sim.Kernel.wait}, so deadline-bounded runs never
    advance the clock in place: they pay a queue push and pop per wait
    where a fuel-only run would not. *)
