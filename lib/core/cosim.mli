(** Hardware/software co-simulation (paper §3.1, Figs. 3).

    Two services:

    {2 The abstraction ladder}

    {!run_echo_assignment} on a {!pure} assignment simulates one fixed
    embedded application — a data source device, a software transform
    running on the processor, a data sink device — at each of the four
    Fig. 3 abstraction levels:

    - {!Pin}: ISS + pin/cycle-accurate bus (wait states visible) — the
      timing reference [4];
    - {!Transaction}: ISS + transaction-level bus (fixed access latency);
    - {!Driver}: ISS + zero-bus device access charged a fixed
      driver-call cost;
    - {!Message}: no ISS at all — communicating processes with
      statement-approximate software timing over kernel channels [2][3].

    The application is functionally identical at every level (same values
    stream through), so the experiment isolates exactly what the paper
    claims the ladder trades: timing fidelity against simulation cost
    (kernel events / process activations).

    {2 Mixed-level assignments}

    The paper's Fig. 3 point is that real co-simulators mix levels {e per
    component}.  {!run_echo_assignment} generalises the ladder run to a
    per-component {!assignment}: [src] picks the
    {!Codesign_bus.Transport.t} modelling the source→CPU interface,
    [sink] the CPU→sink interface, and [cpu] the software model itself
    ({!Message} interprets the behaviour with statement-approximate
    timing; any other level runs the ISS).  The four pure assignments
    are observationally identical — metrics byte-for-byte — to the
    dedicated per-level runners they replaced, and every assignment
    computes the same functional checksum; only cost and timing move.

    {2 Process-network execution}

    {!run_network} executes a {!Codesign_ir.Process_network}: software
    processes are compiled and run on ISS instances that share one CPU
    through a scheduler token (an idealised RTOS); hardware processes
    run as timed behavioural threads whose per-statement cost comes from
    HLS estimation, optionally grouped onto a bounded number of hardware
    engines (one FSMD controller each — the multi-threaded co-processor
    of §4.6).  Channels are the kernel's blocking FIFOs. *)

type level = Codesign_bus.Transport.level =
  | Pin
  | Transaction
  | Driver
  | Message

val all_levels : level list
(** Most detailed first: [[Pin; Transaction; Driver; Message]]. *)

val level_name : level -> string

(** {2 Level assignments} *)

type assignment = { src : level; cpu : level; sink : level }
(** One Fig. 3 grid point: the abstraction level of the source→CPU
    interface, of the software model, and of the CPU→sink interface. *)

val pure : level -> assignment
(** Every component at the same rung — the classic ladder. *)

val is_pure : assignment -> bool

val assignment_name : assignment -> string
(** CLI spelling, e.g. ["pin:tlm:message"]. *)

val parse_assignment : string -> (assignment, string) result
(** Inverse of {!assignment_name}; a single level name means
    {!pure}. *)

val ladder_position : assignment -> int
(** Sum of the component ranks, 0 (all-pin) .. 9 (all-message) — the
    grid's abstraction coordinate.  Simulation cost (events,
    activations) decreases along it. *)

type outcome =
  | Completed
  | Not_halted of string
      (** the simulation ran out of its time bound with the CPU still
          running, or the CPU trapped; the string says which.  A
          structured outcome rather than an exception so fault-injected
          and adversarial runs can observe the anomaly as data. *)
  | Exhausted of string
      (** never produced by {!run_echo_assignment}; kept so that
          existing matches on {!outcome} stay exhaustive *)

type metrics = {
  level : level;
      (** the software-model level ([assignment.cpu]); for pure
          assignments this is the classic ladder rung *)
  assignment : assignment;
  outcome : outcome;
  checksum : int;
      (** functional output (identical across levels when [Completed];
          best-effort partial sum otherwise) *)
  sim_cycles : int;  (** simulated completion time *)
  events : int;  (** kernel events dispatched *)
  activations : int;  (** process activations *)
  bus_ops : int;  (** bus/driver accesses performed (0 at Message) *)
}

val run_echo_assignment :
  levels:assignment ->
  ?items:int ->
  ?work:int ->
  ?src_period:int ->
  ?sink_period:int ->
  ?quantum:int ->
  ?partitions:int ->
  ?link_latency:int ->
  unit ->
  metrics
(** The generic pipeline: one echo system with each component at its
    assigned level.  Defaults: 16 items, transform work 8, source period
    200, sink period 120.  The sink period exceeding the bus latency
    makes device wait states material, which is what separates {!Pin}
    from {!Transaction} timing.  All assignments compute the same
    [checksum]; [events]/[activations] fall as any component moves up
    the ladder, and [bus_ops] is zero exactly when both interfaces are
    at {!Message}.

    [quantum] (default 1) enables temporally decoupled execution of the
    software component: it runs up to [quantum] cycles ahead of the
    kernel between synchronisation points, on the block-compiled ISS
    tier ({!Codesign_isa.Cpu.run_blocks}) or with batched statement
    ticks at {!Message} level, and any port access first flushes the
    accrued lead back into kernel time (sync-before-communication, the
    loosely-timed idiom).  [quantum = 1] is byte-identical to the
    historic per-step/per-statement coupling; larger quanta preserve
    [checksum] and [outcome] but trade event/activation counts (and
    exact interleaving) for speed.
    @raise Invalid_argument if [quantum < 1].

    Bus-coupled assignments stop at 50M cycles, with [Not_halted] if
    the software is still running there; pure-message runs are
    unbounded.

    [partitions] (default 1) runs the system on a conservatively
    synchronised partitioned kernel ({!Codesign_sim.Partition}, one
    domain per partition): 2 cuts the sink onto its own partition
    (src+cpu | sink), 3 also cuts the source (src | cpu | sink).  Only
    message-level interfaces can be cut, and every cut interface's
    transport must declare a positive lookahead — give its channels
    [link_latency >= 1].  [link_latency] (default 0) sets the delivery
    latency of the message channels in every mode, so a partitioned run
    is compared against the serial run at the same [link_latency]; the
    two are byte-identical in all metrics.  [partitions = 1] with
    [link_latency = 0] is exactly the historic serial system.
    @raise Invalid_argument when [partitions] is outside 1..3, or a cut
    interface is not at {!Message} or has zero lookahead. *)

(** {2 Process networks} *)

type network_outcome =
  | Net_completed  (** no software process trapped *)
  | Net_trapped of string * string
      (** [(process, message)]: a software CPU trapped.  The first trap
          in simulation order is reported; the trapped process ends
          cleanly (its kernel process never raises, so the rest of the
          network keeps running and deadlock detection still sees
          accurate blocked sets) and contributes no [sw_results]
          entry. *)

type network_result = {
  end_time : int;
  net_events : int;
  net_activations : int;
  net_outcome : network_outcome;
  port_writes : (string * int * int) list;
      (** (process, port, value), in canonical order: sorted by (write
          time, process declaration index, per-process write sequence) —
          a property of the simulation itself, identical for serial and
          partitioned runs *)
  hw_area : int;  (** summed HLS-estimated area of hardware processes *)
  sw_results : (string * (string * int) list) list;
      (** per software process: its behaviour's result variables
          (trapped processes are absent), in canonical
          (completion time, declaration index) order *)
  chan_stats : (string * Codesign_sim.Channel.stats) list;
      (** per-channel traffic counters in declaration order —
          partition-boundary channels are observable here
          ([messages]/[blocked_sends] split) *)
}

val run_network :
  ?hw_engines:(string * int) list ->
  ?cross_cost:int ->
  ?partition:(string * int) list ->
  Codesign_ir.Process_network.t ->
  network_result
(** [hw_engines] assigns hardware processes to engine ids; processes on
    the same engine serialise (default: each its own engine); software
    timing is the ISS's own cycle counting.  [cross_cost] charges the
    sender that many extra cycles per message on channels whose
    endpoints live on different engines (software counts as one
    engine) — the §3.3 "communication" factor made physical (default
    0).  The network runs until no event is left.

    [partition] maps process names to partition ids (unnamed processes
    go to partition 0); the network then runs on per-partition event
    wheels under conservative synchronisation
    ({!Codesign_sim.Partition}), one OCaml domain per partition
    ([Codesign_par.Pdes]).  Every result field is byte-identical for any
    partition map — including the absent one — on the same network:
    channel latencies are the lookahead, and cross-partition arrivals
    replay in their serial dispatch positions.
    @raise Invalid_argument when a cross-partition channel has latency
    0 (the message names the channel — zero lookahead would livelock
    the synchronisation loop), when software processes are split across
    partitions, when processes sharing an explicit hardware engine are
    split, or when the map names an unknown process.
    @raise Codesign_sim.Kernel.Deadlock if the network deadlocks. *)

val hw_stmt_cycles : Codesign_ir.Behavior.proc -> int
(** Per-dynamic-statement hardware cost derived from the HLS estimate of
    the behaviour (used by the timed hardware threads; exposed for
    tests). *)
