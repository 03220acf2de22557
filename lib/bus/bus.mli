(** The system bus, modelled at the two abstraction levels of the
    paper's Fig. 3 ladder that involve bus activity:

    - {!Tlm}: transaction-level — an access is one blocking call that
      charges a fixed base latency plus arbitration.  Device wait states
      are {i ignored} (that is the abstraction's approximation, and the
      source of its timing error against the pin-level reference).
    - {!Pin}: pin/cycle-level — the bus is a set of {!Codesign_sim.Signal}
      wires driven through an explicit clocked request/acknowledge
      protocol; device wait states stretch the acknowledge, so timing is
      exact.  Costs many kernel events per transfer.

    Both decode through the same {!Memory_map}, so they are functionally
    interchangeable; co-simulation experiments (EXP-3) swap one for the
    other and measure the accuracy/speed trade-off.  Clients (CPU
    wrappers, DMA, drivers) reach either model through
    {!Transport.pin} / {!Transport.tlm}, the ladder's one interface
    record, and read its traffic as {!stats}.

    Arbitration is first-come-first-served and fair in both models. *)

type stats = {
  reads : int;
  writes : int;
  stalls : int;  (** accesses that had to wait for the bus *)
  busy_cycles : int;  (** cycles the bus spent occupied *)
}

(** Transaction-level model. *)
module Tlm : sig
  type t

  val create : Codesign_sim.Kernel.t -> Memory_map.t -> t
  (** Every read and every write takes 2 cycles. *)

  val read : t -> int -> int
  (** Blocking; must run inside a kernel process. *)

  val write : t -> int -> int -> unit

  val stats : t -> stats

  (** Snapshot/restore of the model's mutable state: traffic counters
      and arbiter occupancy.  The {!Memory_map} behind the bus is
      snapshotted separately by its owner.  Restore drops any processes
      queued on the arbiter (see {!Codesign_sim.Kernel.snapshot} for
      the fork discipline). *)

  type snap

  val snapshot : t -> snap
  val restore : t -> snap -> unit
end

(** Pin-accurate model. *)
module Pin : sig
  type t

  val setup_cycles : int
  (** Address/turnaround cycles (1) added to every transfer on top of
      device wait states. *)

  val create : Codesign_sim.Kernel.t -> Memory_map.t -> t
  (** The model drives its own bus clock with period 1 kernel tick per
      cycle. *)

  val read : t -> int -> int
  val write : t -> int -> int -> unit
  val stats : t -> stats

  (** {3 Snapshot / restore}

      Captures the five bus wires, the arbiter and the traffic
      counters.  Only an {e idle} bus can be snapshotted — the slave
      process's position in the request/acknowledge handshake lives in
      an uncapturable effect continuation, so mid-transaction state
      cannot be forked.  {!restore} rewinds the wires (dropping all
      waiters, which abandons the current slave process) and spawns a
      fresh slave for the forked timeline; the abandoned slave stays
      blocked forever and is invisible to
      {!Codesign_sim.Kernel.Quiesce} runs. *)

  type snap

  val snapshot : t -> snap
  (** @raise Invalid_argument if the bus is mid-transaction (arbiter
      held or processes queued on it). *)

  val restore : t -> snap -> unit

  (** Observable wires, for glue logic and waveform-style assertions. *)

  val addr_wire : t -> int Codesign_sim.Signal.t
  val req_wire : t -> int Codesign_sim.Signal.t
  val ack_wire : t -> int Codesign_sim.Signal.t
end
