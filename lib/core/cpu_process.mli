(** A CPU co-simulated at quantum 1: the body of the kernel process that
    runs an ISS instruction by instruction, each instruction's cycles
    becoming one {!Codesign_sim.Kernel.wait}. *)

val run : Codesign_isa.Cpu.t -> unit
(** Run the CPU from inside a (fiber) kernel process until it halts or
    traps.  Observably it is the loop

    {[
      while Cpu.status cpu = Cpu.Running do
        let cy = Cpu.step cpu in
        if cy > 0 then Kernel.wait cy
      done
    ]}

    — the same events, activations, pushes, sequence numbers, clock and
    CPU state at every point another process could look — but where
    those waits would all take {!Codesign_sim.Kernel.wait}'s in-place
    path, it runs whole decoded blocks ({!Codesign_isa.Cpu.run_burst})
    within {!Codesign_sim.Kernel.in_place_budget} and counts their
    waits in one step ({!Codesign_sim.Kernel.count_waits}).  Port hooks,
    pending interrupts, traps, memory-hooked or profiled CPUs and the
    instruction at each budget boundary go through [Cpu.step] and
    [Kernel.wait]. *)
