(** Fault models and recovery mechanisms for the sites the bus/channel
    wrappers cannot reach: memory words, CPU steps, interrupt lines.

    {b Memory}: {!mem_flip} flips one random bit of one random word;
    {!scrub3} is the matching mechanism — a majority-vote scrub across
    three copies that repairs any word where one copy disagrees (each
    repair is a detection).

    {b CPU}: {!cpu_step} wraps {!Codesign_isa.Cpu.step}; a firing
    decision point either forces a spurious trap (detected immediately
    by whoever inspects the status) or silently flips a register bit
    (found only by the result audit).

    {b Interrupts}: {!Irq.raise_line} may lose the event on the wire;
    {!Irq.tick} may inject a spurious one.  The recovery drill pairs
    this with handler-side validation plus a polling fallback. *)

val mem_flip : Injector.t -> int array -> time:int -> unit
(** One random single-bit upset; reported as an injected [Mem] event. *)

val scrub3 :
  Injector.t -> int array -> int array -> int array -> time:int -> int
(** Majority-vote scrub: every word of the three equal-length copies is
    replaced by the bitwise majority; returns the number of repaired
    copies (each reported as a detected [Mem] event). *)

val cpu_step : Injector.t -> Codesign_isa.Cpu.t -> int
(** {!Codesign_isa.Cpu.step} with a fault decision point in front;
    returns the step's cycles.  Injection times are CPU cycle counts
    (the drill runs the ISS standalone). *)

(** A fault-injecting shim over an interrupt controller. *)
module Irq : sig
  type t

  val create :
    Codesign_sim.Kernel.t -> Injector.t -> Codesign_bus.Interrupt.t -> t

  val raise_line : t -> int -> unit
  (** Deliver a device interrupt — unless the wire eats it (lost). *)

  val tick : t -> int -> unit
  (** A decision point for spurious interrupts on the given line. *)

end
