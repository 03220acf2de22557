(** A deterministic time-ordered event queue.

    Events are thunks ordered by (timestamp, key, sequence).  Ordinary
    {!push}ed events all carry the sentinel key [max_int] and a
    queue-assigned monotone sequence number, so among themselves the
    queue is a stable priority queue — events at equal timestamps fire
    in insertion order.  This stability is what makes the whole
    simulation framework reproducible run-to-run.

    {!push_keyed} is the {e arrival lane} used by latency channels and
    the partitioned kernel: the caller assigns the (key, seq) pair, so
    an event's position within its timestamp is a property of the
    communication that produced it (which channel, which send) rather
    than of when it was physically inserted into this particular wheel.
    That is what lets a cross-partition arrival — injected at a barrier,
    long after local events at the same timestamp were pushed — fire in
    exactly the place it would have occupied on a single serial wheel.

    Two structures hold the events.  Each timestamp's {!push}ed events
    sit in a FIFO bucket, found through a fixed ring of 64 slots indexed
    by [time land 63], with a min-heap of the (at most 64) times that
    own a bucket: a push into or a pop from an existing bucket costs
    O(1) however many events share the timestamp, and only making or
    draining a bucket sifts that small heap.  Keyed arrivals,
    {!push_reserved} events and pushes whose slot another time holds go
    into a binary min-heap kept as a structure of arrays.  {!pop_into}
    takes whichever head comes first by (time, key, seq); that is exact
    because a bucket holds only fresh, increasing sequence numbers and
    takes every push at its time from its creation until it drains. *)

type t

val create : unit -> t

val push : t -> time:int -> (unit -> unit) -> unit
(** Schedule a thunk in the ordinary lane ([key = max_int], next
    insertion sequence).  @raise Invalid_argument on negative time. *)

val push_keyed : t -> time:int -> key:int -> seq:int -> (unit -> unit) -> unit
(** Schedule a thunk in the arrival lane: at its timestamp it fires
    before every ordinary event and is ordered against other keyed
    events by (key, seq).  Callers must keep (key, seq) pairs unique per
    timestamp (the latency machinery uses one key per channel and a
    per-channel send counter).  @raise Invalid_argument on negative time
    or a key outside [0, max_int). *)

val count_pushes : t -> int -> unit
(** Count [n] ordinary events that are dispatched at once instead of
    queued: advances the push total and the insertion sequence exactly
    as [n] {!push}es would, so counters and snapshots cannot tell the
    two apart.  {!Kernel.wait} counts one when it advances the clock in
    place, and {!Kernel.count_waits} a whole burst of them. *)

val reserve : t -> int
(** Take the next insertion sequence number and return it, queuing
    nothing: the sequence advances as {!count_pushes} advances it, but no
    push is counted.  Events pushed afterwards get later numbers. *)

val push_reserved : t -> time:int -> seq:int -> (unit -> unit) -> unit
(** Schedule a thunk in the ordinary lane ([key = max_int]) under a
    sequence number taken earlier by {!reserve}, and count one push.
    Among the events at its timestamp it fires where a {!push} made at
    the moment of the reservation would have fired, however much later
    it is queued.  This is how one pending expiry event can stand for a
    stream of timers: the watchdog of the fault library reserves a
    number at every kick and, when its one event fires before the
    deadline, re-queues it at the deadline under the last kick's
    number.  Each number must be pushed at most once.
    @raise Invalid_argument on negative time or on a [seq] this queue
    has not handed out yet (for instance one reserved after the
    snapshot the queue was restored to). *)

type slot = { mutable s_time : int; mutable s_thunk : unit -> unit }
(** A caller-owned out-cell for {!pop_into}: reusing one slot across a
    whole dispatch loop makes the steady-state drain allocation-free
    (no option/tuple per event). *)

val slot : unit -> slot
(** A fresh slot (initially time 0 / no-op thunk). *)

val pop_into : t -> limit:int -> slot -> bool
(** [pop_into t ~limit out] removes the earliest event into [out] and
    returns [true] iff the queue is nonempty and that event's time is
    [<= limit] — merging the peek-compare-pop sequence of a bounded
    dispatch loop into one call.  On [false] the queue is untouched.
    Pass [limit:max_int] for an unbounded drain. *)

val min_time : t -> int
(** Timestamp of the earliest event, or [max_int] when empty. *)

val is_empty : t -> bool

val pushed_total : t -> int
(** Number of pushes over the queue's lifetime (an event-count metric). *)

(** {2 Snapshot / restore}

    A snapshot is canonical: it lists the queued events sorted by
    (time, key, seq), with the insertion counter and push total, so two
    queues holding the same events have structurally equal snapshots
    however the events are spread over buckets and heap.  The thunks
    themselves are shared with the live queue: closures cannot be
    deep-copied.  Restoring therefore re-arms the same thunks, which is
    only sound when every pending thunk is re-entrant — bare
    {!Kernel.at} callbacks and process-start events qualify; a thunk
    wrapping a one-shot effect continuation (a resumed
    {!Kernel.wait}/[suspend]) does not and would raise "resumed twice"
    when the restored copy fires after the original already ran.  The
    fault campaigns sidestep this entirely by snapshotting only at
    quiescence, when the queue is empty. *)

type snap

val snapshot : t -> snap
(** Capture the queued events, insertion-sequence counter and push
    total. *)

val restore : t -> snap -> unit
(** Rewind the queue to [snap]; events pushed since are discarded.  The
    restored events all go into the heap, which the sorted snapshot
    already orders. *)
