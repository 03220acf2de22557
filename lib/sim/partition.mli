(** Conservative partitioning of one process network over several event
    wheels (Chandy–Misra-style, with channel latencies as lookahead).

    A plan owns one {!Kernel} per partition plus a cross-partition
    mailbox per partition.  Channels and signals whose endpoints live on
    different partitions are {e routed}: their sends post (timestamp,
    lane, sequence, thunk) records to the destination mailbox instead of
    scheduling locally.  Execution proceeds in barrier rounds (an LBTS —
    lower bound on timestamp — loop):

    + drain every mailbox into its wheel with keyed injection
      ({!Kernel.at_keyed}), which restores each arrival's serial
      dispatch position;
    + compute the global safe bound [min(limit, emin + lmin - 1)] where
      [emin] is the earliest pending event anywhere and [lmin] the
      minimum routed-link latency;
    + let every partition dispatch up to the bound (serially here, or
      one domain per partition in [Codesign_par.Pdes]).

    Any event generated during a round lands at [>= emin + lmin], i.e.
    strictly past the bound, so it is injected before any wheel reaches
    its timestamp — no partition ever executes ahead of a message it has
    yet to receive.  Because injected arrivals carry the same (lane,
    sequence) keys a serial run would give them, the partitioned
    dispatch order — and hence every statistic, trace and checksum — is
    byte-identical to the single-wheel reference.

    Zero-lookahead links cannot cross a boundary: [emin + 0 - 1] would
    never pass [emin] and the loop would livelock, so {!route_channel}
    and {!route_signal} raise a documented [Invalid_argument] naming the
    offending channel/signal instead. *)

type t

val create : partitions:int -> t
(** A plan with [partitions] fresh kernels.
    @raise Invalid_argument when [partitions < 1]. *)

val partitions : t -> int

val kernel : t -> int -> Kernel.t
(** [kernel t i] is partition [i]'s wheel: spawn processes and create
    channels/signals for partition [i] on it. *)

val route_channel : t -> src:int -> dst:int -> 'a Channel.t -> unit
(** Declare that [c]'s sender lives on partition [src] and its receiver
    on [dst], and install the mailbox route.  The channel must have been
    created on [dst]'s kernel (delivery executes there).
    @raise Invalid_argument when the channel's latency is 0 (zero
    lookahead across a boundary — named in the message) or a partition
    id is out of range. *)

val route_signal : t -> src:int -> dst:int -> 'a Signal.t -> unit
(** Like {!route_channel} for a signal written on [src] and observed on
    [dst]. *)

val next_bound : t -> limit:int -> int option
(** Drain all mailboxes (keyed injection) and compute the next safe
    dispatch bound, or [None] when every wheel is exhausted up to
    [limit].  One call per barrier round. *)

val run_round : t -> int -> bound:int -> unit
(** Dispatch partition [i] up to [bound]
    ({!Kernel.run_horizon}).  Rounds for distinct partitions may run on
    distinct domains; within a round no partition may start before
    {!next_bound} returned. *)

val finish : ?bound:Kernel.bound -> t -> Kernel.stats
(** After the loop: apply [bound] (default {!Kernel.Drain})
    collectively — [Until t] coasts every partition to [t], [Drain]
    raises {!Kernel.Deadlock} with the sorted names of the non-daemon
    processes blocked on every wheel once all of them are empty — and
    return the merged statistics: counter sums, [end_time] the maximum
    over partitions. *)

val run_serial : ?bound:Kernel.bound -> t -> Kernel.stats
(** The reference driver: the full LBTS loop on the calling domain,
    partitions dispatched in index order each round, up to [bound]
    (default {!Kernel.Drain}; an [Until t] bound is the loop's
    [limit]), then {!finish}.  Byte-identical in every observable to
    [Codesign_par.Pdes.run] on the same plan. *)
