(** The fault-injection campaign: sweep fault rate x recovery mechanism
    over one fixed transfer workload, and drill the remaining injector
    sites, producing an {!Codesign_obs.Fault_report.t}.

    {b The sweep.}  Each cell moves [warmup + ops] words from a source
    ROM to a sink RAM across a faulty medium, using one rung of the
    Fig. 3 interface ladder and that rung's recovery mechanism (the
    sink RAM sits right after the source image, so any size fits).  The
    first [warmup] transfers are fault-free (the injector is inactive
    and draws nothing); faults land only in the [ops]-transfer
    injection window, and the report's per-cell [ops] counts the window
    alone:

    - ["pin"]: pin-accurate bus, raw transfers.  No checks exist at this
      level — corruption is silent, a dropped response hangs the master
      until a {!Watchdog} bite, and faults surface only in the end-of-run
      audit.
    - ["tlm"]: transaction-level bus with parity-checked transfers,
      read-back-verified writes and bounded retry+backoff
      ({!Faulty_bus}).  Recovers transients; persistent stuck-at windows
      outlive the retry budget.
    - ["token"]: OS-message rung — no bus at all; items travel a
      stop-and-wait ARQ over a faulty channel ({!Faulty_chan}).
    - ["degrade"]: the graceful-degradation ladder.  Starts pin-level;
      repeated watchdog bites escalate to tlm, repeated retry give-ups
      escalate to token; the report records where it ended up.

    The audit recomputes the expected sink image and scores each cell:
    recovery rate (faulted ops that still arrived intact), detection
    latency (injection-to-detection, end-of-run audit charged to
    whatever no mechanism caught) and cycle overhead versus the same
    mechanism fault-free.

    {b The drills} cover memory scrubbing ({!Faulty_core.scrub3} vs
    nothing), interrupt lines (handler validation + polling fallback),
    CPU faults (re-runs on trap / wrong result through
    {!Codesign_resil.Supervisor.run}, up to five attempts, no
    deadline), and RTL
    stuck-at faults (every single stuck-at on a TMR replica gate vs the
    bare netlist, exhaustive over input vectors).

    {b The cell window.}  Every attempt at a cell takes a warmed world,
    whose fault-free warm-up has run to quiescence under the sweep
    deadline with no fuel; only the injection window then runs, under a
    fresh [cell_fuel] window of simulated time that starts at the
    warm-up boundary.  The engines differ in how an attempt gets its
    warmed world, and in nothing else: {!Rerun} builds and warms a
    fresh one for every attempt; {!Fork} warms each mechanism's world
    once, snapshots every stateful substrate (kernel, memory map,
    faulty buses, ARQ channel, watchdog) and rewinds that checkpoint for
    every attempt, re-spawning the sink process the rewind abandons.
    Because the inactive injector consumes no Rng draws during warm-up,
    and the re-spawn keeps same-time event order, both engines produce
    byte-identical reports at every budget — Rerun is kept as the
    reference the fork path is checked against (in CI, the tests and
    the fuzzer's campaign oracle).

    {b Supervision.}  Every cell runs under a
    {!Codesign_resil.Supervisor}: an attempt that traps, deadlocks or
    exhausts its window is retried, on a freshly warmed or rewound
    world, up to [max_retries] times; a cell that spends its restart
    intensity is emitted as a zeroed row carrying a
    {!Codesign_obs.Degraded.t} record, whose [elapsed] is the simulated
    time at the last failure — the sweep {e completes} with partial
    results instead of aborting.  [deadline_ms] adds a wall deadline
    over the whole sweep: cells not yet started when it passes degrade
    immediately with ["deadline exceeded"] and 0 attempts; an attempt
    it cuts off, in its warm-up or its window, degrades with
    ["budget exhausted: deadline"] and is not retried.  [chaos] appends
    a sabotaged fifth task (mechanism ["chaos-trap"] / ["chaos-hang"])
    whose master fails at its first windowed op — the supervision
    path's own fault-injection harness, used by the chaos CI smoke.

    Everything except wall-deadline cut-offs is a pure function of
    [seed] and the parameters: no wall clock anywhere, so equal seeds
    give byte-identical reports, degraded rows included.  The engine is
    deliberately {e not} recorded in the report. *)

type mechanism = Pin | Tlm | Token | Degrade

val mechanisms : mechanism list
(** In ladder order: [Pin; Tlm; Token; Degrade]. *)

type engine =
  | Rerun  (** build and warm a fresh world for every attempt *)
  | Fork  (** warm up once per mechanism, rewind a checkpoint per attempt *)

type chaos =
  | Chaos_trap  (** master raises at its first windowed op *)
  | Chaos_hang  (** master spins in simulated time forever *)

val default_rates : float list
val default_ops : int
val quick_ops : int

val run_cell :
  seed:int -> ops:int -> rate:float -> mechanism ->
  Codesign_obs.Fault_report.cell
(** One sweep point ([cycle_overhead] computed against a rate-0 point
    of the same mechanism): one unsupervised attempt per point on the
    {!Rerun} engine, with a warm-up of [ops / 2] transfers, the default
    [cell_fuel] and no deadline.
    @raise Failure when an attempt fails. *)

val sweep :
  ?seed:int -> ?ops:int -> ?warmup:int -> ?jobs:int ->
  ?max_retries:int -> ?cell_fuel:int -> ?deadline_ms:int ->
  ?chaos:chaos -> engine -> Codesign_obs.Fault_report.cell list
(** The transfer sweep alone (no drills), on the given engine — what
    the fork-vs-rerun microbenchmarks and identity checks exercise.
    Cell order: for each mechanism in ladder order (then the [chaos]
    task, when present), the rate-0 baseline then each rate in
    {!default_rates}.

    [jobs] (default 1) shards the sweep over a
    {!Codesign_par.Domain_pool} with one task per mechanism; each worker
    domain builds, warms up and (on {!Fork}) checkpoints its own private
    world, and results merge back in ladder order.  Every cell is a pure
    function of [(seed, rate, ops, warmup, mechanism, max_retries,
    cell_fuel)] — wall deadlines aside — so the cell list — and hence
    the report JSON — is byte-identical at every [jobs] (enforced by
    [test/test_parallel.ml], [test/test_resil.ml] and the CI [cmp]
    step), degraded cells included.

    [max_retries] (default 2) caps per-cell restarts, [cell_fuel]
    (default 200M units, the historic hard run bound) bounds each
    attempt's injection window in simulated time, [deadline_ms] bounds
    the whole sweep in wall time, [chaos] injects a deliberately failing
    task (see the header). *)

val run :
  ?seed:int -> ?ops:int -> ?warmup:int ->
  ?engine:engine -> ?jobs:int -> ?max_retries:int ->
  ?cell_fuel:int -> ?deadline_ms:int -> ?chaos:chaos -> unit ->
  Codesign_obs.Fault_report.t
(** The full campaign.  Defaults: [seed = 42], [ops = default_ops],
    [warmup = ops / 2], [engine = Fork], [jobs = 1], [max_retries = 2],
    [cell_fuel] 200M units, no deadline, no chaos.  [jobs]
    parallelises the sweep exactly as in {!sweep}; the drills always
    run serially on the calling domain, outside the sweep deadline —
    they are plain in-process measurements. *)
