(** First-class HW/SW interface levels — the Fig. 3 ladder as a value.

    A {!t} is one rung of the paper's interface-abstraction hierarchy
    packaged behind a uniform signature: [read]/[write] move a word
    between master and the addressed endpoint, [wait_ready] blocks the
    caller until the endpoint's status register reports readiness, and
    [stats]/[level] expose what the model cost and which rung it is.
    It is the one interface record of the ladder — pin-accurate bus,
    transaction-level bus, driver call, kernel-channel message — so the
    ladder is an extension point instead of a [match] statement:
    co-simulation pipelines, fault injectors, the DMA engine and
    transactors all take a {!t} and never ask which backend is behind
    it.

    {2 Endpoint convention}

    An endpoint occupies a small register window: its {e status}
    register lives at the endpoint's base address (nonzero = ready) and
    its {e data} register at base + 1.  {!Device.Stream_src} /
    {!Device.Stream_sink} regions follow this layout, as do the
    {!Mailbox} transactor regions below.

    {2 The four backends}

    - {!pin} — every access is a full request/acknowledge handshake on
      a {!Bus.Pin} bus (wait states visible; the timing reference);
    - {!tlm} — every access is an atomic fixed-latency {!Bus.Tlm}
      transfer;
    - {!driver} — a lumped driver call: readiness is observed
      functionally (free status polls), the data access costs a fixed
      overhead and bypasses the bus entirely;
    - {!message} — endpoints are kernel channels; accesses are blocking
      sends/receives with no bus traffic at all (the OS
      send/receive/wait rung).

    {2 Transactors}

    The paper's "bus interface model": adapters that let a producer at
    one rung serve a consumer at another.  {!view} re-labels a detailed
    transport for a more abstract caller (message- or TLM-level
    software driving a pin bus).  {!Mailbox} bridges a message stream
    onto the bus so a pin/TLM/driver master can consume it, and
    {!stream_to_channel} pumps a bus-mapped stream into a channel so
    message-level software can [recv] it. *)

module Kernel := Codesign_sim.Kernel
module Channel := Codesign_sim.Channel

(** {1 Levels} *)

type level = Pin | Transaction | Driver | Message

val all_levels : level list
(** Most detailed first: [[Pin; Transaction; Driver; Message]]. *)

val level_name : level -> string
(** Paper-facing name ("pin/signal", "bus transaction", ...). *)

val short_name : level -> string
(** CLI spelling: "pin" | "tlm" | "driver" | "message". *)

val level_of_string : string -> (level, string) result
(** Inverse of {!short_name}; also accepts "msg" and "transaction". *)

val rank : level -> int
(** Ladder position, 0 (pin, most detailed) .. 3 (message). *)

(** {1 The transport record} *)

type t = {
  level : level;
  lookahead : int;
      (** the backend's guaranteed minimum latency between initiating an
          access and its earliest remote effect — the lookahead a
          conservative partitioned run ({!Codesign_sim.Partition}) can
          claim when this transport is the only traffic crossing a
          partition boundary.  Per rung: {!pin}
          {!Bus.Pin.setup_cycles},
          {!tlm} [min read_latency write_latency], {!driver} its
          [call_cost], {!message} the minimum declared channel latency
          over its endpoints (0 when any endpoint is an immediate
          channel).  0 means "no guarantee": the transport cannot cut a
          partition boundary. *)
  read : int -> int;  (** fetch the word at an address (blocking) *)
  write : int -> int -> unit;  (** store a word at an address (blocking) *)
  wait_ready : int -> unit;
      (** block until the status register at the given address reads
          nonzero, polling with the backend's own access mechanism *)
  stats : unit -> Bus.stats;
      (** traffic charged to the interface: the bus counters on the bus
          rungs, the driver's entries ([stalls] and [busy_cycles] 0),
          all zero on the message rung *)
  save : unit -> unit -> unit;
      (** snapshot capability: [save ()] captures the backend's mutable
          state and returns the thunk that restores it.  Every backend
          has one.  Use through {!snapshot} / {!restore} rather than
          directly. *)
}

(** {1 Snapshot / restore}

    Backend state captured per rung: {!pin} the full {!Bus.Pin} state
    (wires, arbiter, counters — the bus must be idle); {!tlm} the
    {!Bus.Tlm} counters and arbiter; {!driver} its access counters;
    {!message} nothing (the record is stateless — the bound channels are
    snapshotted by whoever owns them).  The {!Memory_map} behind a bus
    rung is never captured here; snapshot it separately.  {!view} and
    record-update wrappers share the underlying [save], but a snapshot
    must be restored through the same record value it was taken from. *)

type snap

val snapshot : t -> snap
(** @raise Invalid_argument if the pin bus is mid-transaction (see
    {!Bus.Pin.snapshot}). *)

val restore : t -> snap -> unit
(** @raise Invalid_argument if [snap] was taken from a different
    transport record. *)

(** {1 Backends} *)

val pin : Kernel.t -> Memory_map.t -> t
(** Pin-accurate: wraps a fresh {!Bus.Pin} over the map (this spawns
    the bus-slave decoder process).  [wait_ready] status spins are real
    bus handshakes, 8 cycles apart. *)

val tlm :
  ?read_latency:int ->
  ?write_latency:int ->
  Kernel.t ->
  Memory_map.t ->
  t
(** Transaction-level: wraps a fresh {!Bus.Tlm} over the map.  Status
    spins are timed bus transfers. *)

val driver : ?call_cost:int -> Memory_map.t -> t
(** Driver-call: [read]/[write] charge [call_cost] (default 6) cycles
    and then access the map directly — one lumped driver entry, no
    individual bus events.  [wait_ready] polls the map functionally
    (free reads, 8 cycles apart): device readiness is observed, not
    transacted. *)

val message :
  ?recv:(int * int Channel.t) list ->
  ?send:(int * int Channel.t) list ->
  unit ->
  t
(** Send/receive/wait: each [(base, chan)] binding maps the endpoint at
    [base] onto a kernel channel.  Reading a bound endpoint's data
    register performs a blocking [Channel.recv]; writing a bound
    endpoint's data register performs a blocking [Channel.send];
    reading the status register reports whether the data operation
    would proceed without blocking (a latency channel's send endpoint is
    always ready — it is a delay line).  [wait_ready] is a no-op (the data
    operations already block) and [stats] is all zero: message traffic
    is kernel channel activity, not bus operations.  Accessing an
    unbound address raises [Invalid_argument]. *)

(** {1 Transactors} *)

val view : t -> as_:level -> t
(** The same medium presented to a caller at a more abstract rung: a
    message- or TLM-level master driving a pin-accurate bus sees its
    blocking calls expand into full handshakes underneath.  Only the
    label changes — timing and statistics are the wrapped backend's.
    Raises [Invalid_argument] when [as_] is more detailed than the
    transport's own level (abstraction can be added, not invented). *)

(** A bus-mapped mailbox fed by a kernel channel: the message→bus
    transactor.  A pump process drains the channel into a bounded FIFO
    behind a status/data register window, so any bus-level master can
    poll and read a message producer's stream without knowing a channel
    exists. *)
module Mailbox : sig
  type t

  val create :
    ?name:string -> ?depth:int -> Kernel.t -> int Channel.t -> t
  (** Spawns the pump process (default FIFO [depth] 4). *)

  val region : name:string -> base:int -> t -> Memory_map.region
  (** Status at [base] (FIFO occupancy), data at [base + 1]
      (destructive read; 0 when empty). *)

  val delivered : t -> int
  (** Words the pump has moved out of the channel so far. *)
end

val stream_to_channel :
  ?name:string ->
  Kernel.t ->
  t ->
  base:int ->
  count:int ->
  int Channel.t ->
  unit
(** The bus→message transactor: spawns a pump that performs
    [wait_ready base; read (base + 1)] through the given transport
    [count] times, forwarding each word into the channel — a bus-mapped
    stream made consumable by message-level software. *)
