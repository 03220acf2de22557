(** Blocking point-to-point channels: the [send]/[receive]/[wait]
    abstraction level of the paper's Fig. 3 (ref [3]).

    A channel with [depth = 0] is a rendezvous: [send] blocks until a
    receiver arrives (and vice versa).  With [depth > 0] it is a bounded
    FIFO: [send] blocks only when full, [recv] only when empty.  All
    queuing is strictly FIFO, so communication schedules are
    deterministic.

    A channel with [latency > 0] is a {e delay line}: [send] never
    blocks and the value arrives at the receiving side exactly [latency]
    ticks later ([depth] is ignored in this mode — in-flight capacity is
    unbounded).  The declared latency is the channel's {e lookahead}:
    when the channel crosses a partition boundary ({!Partition}), the
    conservative synchronization loop uses it as the guaranteed gap
    between a send and its earliest effect, so every partition can
    safely dispatch that far ahead.  Delivery is ordered by (channel
    lane, send sequence) in the destination wheel's arrival lane
    ({!Kernel.at_keyed}), making arrival order a property of the
    communication rather than of which wheel hosts the receiver — the
    keystone of the partitioned-equals-serial guarantee.

    Per-channel traffic counters feed the co-simulation experiments
    (message counts are the "event" currency at this abstraction
    level). *)

type 'a t

type stats = {
  sends : int;  (** completed send operations *)
  messages : int;  (** values actually obtained by receivers *)
  blocked_sends : int;  (** times a sender had to block *)
  recv_blocks : int;  (** times a receiver had to block *)
}
(** [sends - messages] is the traffic still in flight (buffered or
    travelling through a latency channel); [blocked_sends] separates
    rendezvous/full-FIFO back-pressure from free-running buffered
    traffic, so partition-boundary channels are observable. *)

val create :
  ?depth:int -> ?latency:int -> ?name:string -> Kernel.t -> unit -> 'a t
(** [depth] defaults to 0 (rendezvous); [latency] defaults to 0
    (immediate).  @raise Invalid_argument on negative depth or
    latency. *)

val name : 'a t -> string
val depth : 'a t -> int

val latency : 'a t -> int
(** Declared delivery latency — the channel's lookahead. *)

val lane : 'a t -> int
(** Arrival-lane key in the hosting kernel (creation order). *)

val stats : 'a t -> stats

val set_route : 'a t -> (int -> (unit -> unit) -> unit) -> unit
(** Install a cross-partition route: every subsequent send hands its
    (send sequence, delivery thunk) to the route instead of scheduling
    locally; the {!Partition} driver posts it to the destination
    partition's mailbox for keyed injection at the next barrier.
    @raise Invalid_argument when the channel has zero lookahead
    ([latency = 0], named in the message) — such a channel cannot cross
    a partition boundary without livelocking the LBTS loop. *)

val send : 'a t -> 'a -> unit
(** Blocking send; must run inside a kernel process when it blocks.
    Never blocks on a [latency > 0] channel. *)

val recv : 'a t -> 'a
(** Blocking receive. *)

val send_cb : 'a t -> Kernel.process -> 'a -> (unit -> unit) -> unit
(** [send_cb c self v k] is {!send} followed by [k ()] for a callback
    process ({!Kernel.spawn_cb}): the same counters, the same wake-ups
    and the same place in the channel's wait queue; when the send
    blocks, [k] runs once a receiver has taken [v]. *)

val recv_cb : 'a t -> Kernel.process -> ('a -> unit) -> unit
(** [recv_cb c self k] is {!recv} followed by [k v], for a callback
    process. *)

val try_send : 'a t -> 'a -> bool
(** Non-blocking send: true on success (room in buffer, a waiting
    receiver, or a latency channel — which always accepts). *)

val try_recv : 'a t -> 'a option
(** Non-blocking receive. *)

val occupancy : 'a t -> int
(** Messages currently buffered (for a latency channel: arrived but not
    yet received). *)

(** {2 Snapshot / restore}

    A snapshot copies the buffered messages and the traffic counters.
    Blocked senders/receivers hold one-shot effect continuations and
    cannot be captured: {!restore} {e abandons} any processes currently
    waiting on the channel (their resume thunks are dropped, they are
    never woken).  The supported fork discipline is to snapshot at
    quiescence and re-spawn the channel's communicating processes after
    each restore — see {!Kernel.snapshot}. *)

type 'a snap

val snapshot : 'a t -> 'a snap

val restore : 'a t -> 'a snap -> unit
(** Rewind buffer contents and counters; drop all current waiters. *)
