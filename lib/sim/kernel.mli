(** The discrete-event co-simulation kernel.

    Processes are cooperative coroutines implemented with OCaml 5 effect
    handlers: a process is an ordinary function that calls the blocking
    primitives {!wait} / {!suspend} / {!yield}; the kernel captures the
    continuation and resumes it when simulated time or a wake-up
    condition arrives.  This mirrors the structure of an HDL simulator's
    process model while letting hardware models, instruction-set
    simulators and abstract software processes coexist on one event
    wheel — the co-simulation backplane of the paper's §3.1.

    Determinism: events at the same timestamp fire in schedule order, and
    nothing reads wall-clock time, so simulations are bit-reproducible.

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
    when the event was physically pushed.  {!Channel} and {!Signal} use
    this for declared-latency delivery so that a partitioned run
    ({!Partition}) dispatches in exactly the serial order.
    @raise Invalid_argument on a time in the past or a key outside
    [0, max_int). *)

val alloc_lane : t -> int
(** Allocate the next arrival-lane key of this kernel (0, 1, 2, ...).
    Channels and signals take one lane each at creation, in creation
    order, so the relative lane order of any subset is the same whether
    they were created on one shared wheel or spread over per-partition
    wheels in the same overall order. *)

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
    event queue.  That takes four things: the process was resumed by a
    [stop]-less loop of its kernel ({!run} without [stop], or
    {!run_horizon}) and is still the one running; [n >= 0]; [n] is
    smaller than the gap to the earliest queued event, so events at the
    wake-up time still run first in schedule order; and [n] fits in the
    gap to the loop's bound (an [Until] time, or the round's
    [horizon]), so a wake-up past the bound stays queued.  An in-place
    wait counts one event, one activation and one scheduled push and
    takes one insertion sequence number, exactly as a queued one does,
    so {!stats}, {!domain_totals}, snapshots and every observable are
    the same on both paths.  Every other wait is queued.

    A negative [n] raises [Invalid_argument] inside the process; an [n]
    whose wake-up time overflows makes the run raise
    [Invalid_argument]. *)

val yield : unit -> unit
(** Reschedule after events already pending at the current time — a
    delta-cycle boundary. *)

val suspend : register:((unit -> unit) -> unit) -> unit
(** The general blocking primitive: captures the continuation and passes
    a [resume] thunk to [register]; calling [resume] (exactly once, at
    any later point) reschedules the process at the then-current time.
    {!Signal} and {!Channel} are built on this. *)

val self_name : unit -> string
(** Name of the currently running process ("?" for callbacks). *)

(** {2 Snapshot / restore}

    A kernel snapshot captures the clock, the event heap (see the
    {!Event_queue} caveats — pending thunks are shared, not copied, so
    a snapshot is only truly forkable when the heap holds re-entrant
    thunks or nothing at all), the per-kernel statistics counters and
    the blocked-process table.  It does {e not} capture the tracer sink
    or the per-domain cumulative totals, and it cannot capture the
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
(** Rewind clock, heap and counters to [snap].  Processes spawned since
    the snapshot lose their pending start events; processes blocked
    since are abandoned (never resumed). *)

(** {2 Tracing} *)

val trace : t -> (int -> string -> unit) -> unit
(** Install a trace sink receiving (time, message). *)

val emit : t -> string -> unit
(** Emit a trace message at the current time (no-op without a sink). *)
