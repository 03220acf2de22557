(** The discrete-event co-simulation kernel.

    Processes are cooperative coroutines implemented with OCaml 5 effect
    handlers: a process is an ordinary function that calls the blocking
    primitives {!wait} / {!suspend}; the kernel captures the
    continuation and resumes it when simulated time or a wake-up
    condition arrives.  This mirrors the structure of an HDL simulator's
    process model while letting hardware models, instruction-set
    simulators and abstract software processes coexist on one event
    wheel — the co-simulation backplane of the paper's §3.1.

    Determinism: events at the same timestamp fire in schedule order, and
    nothing reads wall-clock time, so simulations are bit-reproducible.

    Cost: the handler matches two effects, [Wait] and [Suspend].  A
    {!wait} that wakes next advances the clock in place with no effect
    at all; a queued one costs an effect, a resume closure and one push
    and pop of the {!Event_queue}, whose per-timestamp buckets make both
    O(1) however many processes wake at the same time (about 88 ns an
    event with 48 processes tied in [wait 1] loops, on a 2-core host).

    A process can also be written in continuation-passing style
    ({!spawn_cb}): it blocks through {!wait_cb} / {!suspend_cb}, handing
    over what it does next as a closure, so a queued wait costs a push,
    a pop and a closure call, with no effect and no fiber.  Both forms
    share one accounting — spawns, pushes, events, activations,
    sequence numbers and the blocked set — so a callback process and a
    fiber process that block the same way are indistinguishable to
    {!stats}, snapshots and {!Deadlock}.

    The blocking primitives must only be called from within a process
    body spawned on some kernel; calling them elsewhere raises
    [Not_in_process]. *)

type t

exception Not_in_process
(** Raised when {!wait} etc. are performed outside a kernel process. *)

exception Deadlock of string
(** Raised by a {!Drain} {!run} when every non-daemon process is
    blocked with no pending events (the string lists the blocked
    process names, sorted).  Daemon processes (see {!spawn}) never count
    towards deadlock. *)

(** How a run ends — the one run contract shared by {!run},
    {!Partition.run_serial}, {!Partition.finish} and
    [Codesign_par.Pdes.run]. *)
type bound =
  | Drain
      (** dispatch until the queue is empty; if non-daemon processes are
          then still blocked, raise {!Deadlock} *)
  | Quiesce
      (** dispatch until the queue is empty and abandon any blocked
          processes silently *)
  | Until of int
      (** dispatch every event up to time [t], then set the clock to
          [max now t] — even if undispatched events remain queued past
          the bound — so repeated bounded runs keep a consistent clock
          for subsequent {!at}/{!wait} calls.  Blocked processes are
          never reported: {!blocked_non_daemon} and
          {!has_pending_events} tell a deadlock apart from a run that
          was cut off. *)

type stats = {
  events : int;  (** events dispatched by the wheel *)
  scheduled : int;  (** events pushed over the kernel lifetime *)
  activations : int;  (** process resumptions (incl. first runs) *)
  spawned : int;  (** processes created *)
  end_time : int;  (** simulation time when {!run} returned *)
}

val create : unit -> t

val now : t -> int
(** Current simulation time. *)

val spawn : ?name:string -> ?daemon:bool -> t -> (unit -> unit) -> unit
(** Register a process; it first runs when {!run} reaches the current
    time.  A process function returning normally terminates the
    process.  A [daemon] process (default [false]) is a background
    observer — e.g. a {!Vcd} watcher — whose suspensions are excluded
    from {!Deadlock} detection: a simulation whose only remaining
    blocked processes are daemons is quiescent, not deadlocked. *)

val at : t -> time:int -> (unit -> unit) -> unit
(** Schedule a bare callback (not a process: it must not block) at an
    absolute time >= now. *)

val at_keyed : t -> time:int -> key:int -> seq:int -> (unit -> unit) -> unit
(** Schedule a bare callback in the {e arrival lane}
    ({!Event_queue.push_keyed}): at its timestamp it fires before every
    ordinary event and is ordered against other keyed events by
    (key, seq) — a property of the communication, not of which wheel or
    when the event was physically pushed.  {!Channel} uses this for
    declared-latency delivery so that a partitioned run
    ({!Partition}) dispatches in exactly the serial order.
    @raise Invalid_argument on a time in the past or a key outside
    [0, max_int). *)

val reserve : t -> int
(** Take this kernel's next insertion sequence number for a bare
    callback to be scheduled later ({!Event_queue.reserve}): nothing is
    queued and no push is counted, while every event scheduled
    afterwards is ordered after the number taken. *)

val at_reserved : t -> time:int -> seq:int -> (unit -> unit) -> unit
(** Schedule a bare callback at an absolute time >= now under a number
    taken by {!reserve} ({!Event_queue.push_reserved}), counting one
    scheduled push: among the ordinary events at [time] it fires where
    an {!at} made at the moment of the reservation would have fired.
    The fault library's watchdog keeps one pending expiry event this
    way.  @raise Invalid_argument on a time in the past or a number
    this kernel has not handed out. *)

val alloc_lane : t -> int
(** Allocate the next arrival-lane key of this kernel (0, 1, 2, ...).
    Channels take one lane each at creation, in creation order, so the
    relative lane order of any subset is the same whether they were
    created on one shared wheel or spread over per-partition wheels in
    the same overall order. *)

val run : ?bound:bound -> ?stop:(unit -> bool) -> t -> stats
(** Dispatch events until [bound] (default {!Drain}) says the run is
    over, and return the run statistics.  [run] may be called again
    after adding more work.

    [stop] is polled before each dispatch; when it returns [true] the
    run returns immediately with events still queued, the clock left at
    the last dispatched event (no coasting to an [Until] bound) and no
    deadlock check — an interrupted run is not a completed window.  Use
    {!has_pending_events} to distinguish "stopped early" from "drained".
    The predicate costs one call per event, paid only when supplied.  A
    run with [stop] queues every {!wait}, so the predicate is polled
    before each wake-up too; only the [stop]-less loop lets a waiting
    process that is the next event advance the clock in place (see
    {!wait}).  {!Codesign_resil.Budget} uses [stop] to impose wall-clock
    deadlines. *)

val has_pending_events : t -> bool
(** [true] iff undispatched events remain queued — after a bounded or
    [stop]ped {!run}, the sign that the simulation was cut off rather
    than drained. *)

val next_event_time : t -> int
(** Timestamp of this kernel's earliest pending event, or [max_int] when
    its wheel is empty.  The {!Partition} LBTS loop takes the minimum
    over all partitions to compute the next global safe bound. *)

val run_horizon : t -> horizon:int -> unit
(** One barrier round of the partitioned loop: dispatch every event with
    time <= [horizon], leaving the clock at the last dispatched event.
    Unlike {!run} this neither coasts to the bound nor checks for
    deadlock — the {!Partition} driver owns both decisions across the
    whole set of wheels after the final round.  Per-domain totals are
    settled per call, so a round run on a worker domain contributes a
    mergeable delta. *)

val coast : t -> time:int -> unit
(** Advance the clock to [time] if it is ahead of [now] (no events are
    dispatched).  The {!Partition} driver uses it to settle every
    partition on the common end time after the last round. *)

val blocked_non_daemon : t -> string list
(** Names of the non-daemon processes currently blocked in {!suspend}
    (unsorted, one entry per blocked process).  Empty for a quiescent or
    deadlock-free kernel; after a bounded {!run}, a non-empty result
    with an empty event queue means the simulation can never make
    progress again — the condition an unbounded {!run} reports as
    {!Deadlock}. *)

val stats : t -> stats
(** Statistics so far (also valid mid-run, from within a process). *)

(** {2 Per-domain cumulative counters}

    Every {!run} adds its dispatched-event / activation / scheduling
    counts to counters local to the calling domain, so a measurement
    layer can attribute simulation work to whatever ran on this domain
    (the bench harness runs one experiment per domain and reads the
    deltas) without threading kernel handles through the code under
    measurement. *)

type domain_totals = {
  d_events : int;  (** events dispatched by kernels on this domain *)
  d_activations : int;  (** process resumptions on this domain *)
  d_scheduled : int;  (** events pushed by runs on this domain *)
  d_kernels : int;  (** kernels created on this domain *)
}

val domain_totals : unit -> domain_totals
(** Cumulative totals for the calling domain (monotonically
    nondecreasing; snapshot before/after a workload and subtract). *)

val diff_totals :
  after:domain_totals -> before:domain_totals -> domain_totals
(** Componentwise [after - before]: the delta a workload contributed
    between two {!domain_totals} snapshots. *)

val merge_domain_totals : domain_totals -> unit
(** Add a delta into the calling domain's cumulative totals.  Used by
    {!Codesign_par.Domain_pool} after joining its worker domains: each
    worker's delta is folded back into the spawning domain, so a
    measurement layer on the caller sees the same totals whether a
    workload ran serially or was sharded over domains.  Addition is
    commutative, so the merged totals do not depend on worker
    scheduling. *)

(** {2 Blocking primitives (call only inside a process)} *)

val wait : int -> unit
(** Advance this process's time by a non-negative delta [n].

    When the wake-up is the very next event the dispatch loop would run,
    the process advances the clock in place instead of through the
    event queue: [wait] returns at once, performing no effect and
    capturing no continuation.  That takes four things: the process was
    resumed by a [stop]-less loop of its kernel ({!run} without [stop],
    or {!run_horizon}) and is still the one running; [n >= 0]; [n] is
    smaller than the gap to the earliest queued event, so events at the
    wake-up time still run first in schedule order; and [n] fits in the
    gap to the loop's bound (an [Until] time, or the round's
    [horizon]), so a wake-up past the bound stays queued.  [wait] tests
    them on the kernel whose dispatch loop is innermost on the calling
    domain: every loop names its kernel there for as long as it runs
    and puts the enclosing one back however it ends, so while that
    kernel has a process running, the caller is that process.  An
    in-place wait counts one event, one activation and one scheduled
    push and takes one insertion sequence number, exactly as a queued
    one does, so {!stats}, {!domain_totals}, snapshots and every
    observable are the same on both paths.  Every other wait performs
    an effect and is queued.

    A negative [n] raises [Invalid_argument] inside the process; an [n]
    whose wake-up time overflows makes the run raise
    [Invalid_argument]. *)

val in_place_budget : unit -> int
(** The largest total delay the calling process could now wait through
    a chain of {!wait}s that all take the in-place path:
    [min (next queued event - now - 1) (loop bound - now)], or a
    negative number when its waits would be queued (it is not the
    running process of a [stop]-less loop, or the loop's bound is
    behind).  Nothing is counted. *)

val count_waits : waits:int -> total:int -> unit
(** Count, in one step, [waits] in-place {!wait}s whose delays sum to
    [total]: the clock advances by [total], and events, activations,
    scheduled pushes and the queue's insertion sequence by [waits],
    exactly as the chain of waits would advance them.  A CPU at quantum
    1 uses it for a burst of instructions run on the block tier.
    @raise Invalid_argument unless [waits >= 1] and
    [0 <= total <= in_place_budget ()]. *)

val suspend : register:((unit -> unit) -> unit) -> unit
(** The general blocking primitive: captures the continuation and passes
    a [resume] thunk to [register]; calling [resume] (exactly once, at
    any later point) reschedules the process at the then-current time;
    calling it again raises [Invalid_argument "Kernel: process NAME
    resumed twice"].  While suspended the process counts as blocked
    (see {!blocked_non_daemon}).  {!Signal} and {!Channel} are built on
    this. *)

(** {2 Callback processes}

    A callback process never performs an effect: each blocking call
    takes the rest of the process as a continuation and returns, and
    the kernel calls the continuation when the process wakes.  Its
    body and every continuation must end in a tail call to one of these
    primitives, to another continuation, or return (which ends the
    process); the fiber primitives {!wait} / {!suspend} must not be
    called from it. *)

type process
(** The handle a callback process's body receives. *)

val spawn_cb : ?name:string -> t -> (process -> unit) -> unit
(** {!spawn} of a non-daemon callback process: the same count, the
    same start event and the same blocked-set record. *)

val wait_cb : process -> int -> (unit -> unit) -> unit
(** [wait_cb self n k] is {!wait}[ n] followed by [k ()]: under the
    conditions of {!wait}'s in-place path (tested on [self]'s kernel)
    it counts the wake-up at once and calls [k] directly; otherwise it
    queues [k] as the wake-up event, which counts one activation.
    @raise Invalid_argument on a negative [n]. *)

val suspend_cb :
  process -> register:((unit -> unit) -> unit) -> (unit -> unit) -> unit
(** [suspend_cb self ~register k] is {!suspend} followed by [k ()]:
    [self] counts as blocked until the [resume] handed to [register] is
    called (once; twice raises as for {!suspend}), which queues [k] at
    the then-current time. *)

(** {2 Snapshot / restore}

    A kernel snapshot captures the clock, the event heap (see the
    {!Event_queue} caveats — pending thunks are shared, not copied, so
    a snapshot is only truly forkable when the heap holds re-entrant
    thunks or nothing at all), the per-kernel statistics counters, the
    next arrival lane and the set of blocked processes: a copy of the
    live part of the kernel's dense blocked array, one record per
    process blocked at that moment (made once at {!spawn}: name, daemon
    flag, slot).  {!restore} empties the current set and registers the
    saved records again.  It does {e not} capture the per-domain cumulative totals, and it cannot capture the
    insides of blocked processes: effect continuations are one-shot, so
    a process blocked in {!suspend} at snapshot time belongs to the
    timeline it was captured on.  The supported fork discipline —
    used by the fault campaigns — is therefore: drain to quiescence
    (empty heap), snapshot, and after each {!restore} re-[spawn] fresh
    instances of whatever processes the forked world needs, abandoning
    the old blocked ones (their {!Signal}/{!Channel} wait-queue entries
    are dropped by the corresponding restores, and their [blocked]
    entries were part of the snapshot, so {!Quiesce} runs are
    unaffected). *)

type snap

val snapshot : t -> snap

val restore : t -> snap -> unit
(** Rewind clock, heap, counters and the blocked set to [snap].
    Processes spawned since the snapshot lose their pending start
    events; processes blocked since are abandoned (never resumed) and
    no longer count as blocked, while those blocked at the snapshot
    count as blocked again. *)
