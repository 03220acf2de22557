(** The process-network runner {!Codesign.Cosim.run_network} replaced,
    kept as a differential reference.  Every hardware process is a
    fiber ({!Codesign_sim.Kernel.spawn}) running the behaviour with
    {!Codesign_ir.Behavior.run} and [~tick:Kernel.wait], and releases
    and re-takes its engine's token around every channel operation,
    whether or not another process shares the engine; every software
    process steps its CPU one instruction and one {!Codesign_sim.Kernel.wait}
    at a time.  Its signature and result are those of
    [Cosim.run_network], whose tests hold the two to the same result,
    field by field, or the same exception.  It does not check the
    partition map: give it only maps [run_network] accepts. *)

val run_network :
  ?hw_engines:(string * int) list ->
  ?cross_cost:int ->
  ?partition:(string * int) list ->
  Codesign_ir.Process_network.t ->
  Codesign.Cosim.network_result
