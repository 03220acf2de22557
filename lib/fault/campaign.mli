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

    {b The engines.}  The warm-up + window structure exists so the
    sweep can {e fork from a checkpoint}: the {!Fork} engine builds each
    mechanism's world once, runs the warm-up to quiescence, snapshots
    every stateful substrate (kernel, memory map, faulty buses, ARQ
    channel, watchdog) and rewinds that checkpoint once per rate; the
    {!Rerun} engine rebuilds the world and repeats the warm-up for
    every cell.  Both run every cell through the same supervised cell
    loop and differ only in how an attempt gets its world: the fork
    engine takes its checkpoint inside the first supervised attempt
    that needs one, so its warm-up fails, retries and degrades exactly
    like the rerun engine's warm-up inside a cell.  Because the
    inactive injector consumes no Rng draws during warm-up, and the
    per-fork re-spawns preserve same-time event order, both engines
    produce byte-identical reports — Rerun is kept as the reference the
    fork path is checked against (in CI and in the property tests).

    {b Supervision.}  Every cell runs under a
    {!Codesign_resil.Supervisor}: an attempt that traps, deadlocks or
    exhausts its [cell_fuel] window is rolled back (fork engine: rewind
    to the warm-up checkpoint; rerun engine: rebuild from zero) and
    retried up to [max_retries] times; a cell that spends its restart
    intensity is emitted as a zeroed row carrying a
    {!Codesign_obs.Degraded.t} record — the sweep {e completes} with
    partial results instead of aborting.  [deadline_ms] adds a wall
    deadline over the whole sweep: cells not yet started when it passes
    degrade immediately with ["deadline exceeded"] and 0 attempts; an
    attempt it cuts off (a fork warm-up included) degrades with
    ["budget exhausted: deadline"] and is not retried, on both engines
    alike.  [chaos] appends a
    sabotaged fifth task (mechanism ["chaos-trap"] / ["chaos-hang"])
    whose master fails at its first windowed op — the supervision
    path's own fault-injection harness, used by the chaos CI smoke.

    Everything except wall-deadline cut-offs is a pure function of
    [seed] and the parameters: no wall clock anywhere, so equal seeds
    give byte-identical reports — including degraded rows, whose
    [elapsed] is simulated time.  The engine is deliberately {e not}
    recorded in the report.  (The two engines may differ in a degraded
    {e hang} cell's [elapsed]: the fork engine's fuel window starts at
    the checkpoint time, the rerun engine's at zero.) *)

type mechanism = Pin | Tlm | Token | Degrade

val mechanism_name : mechanism -> string
val mechanisms : mechanism list
(** In ladder order: [Pin; Tlm; Token; Degrade]. *)

type engine =
  | Rerun  (** rebuild world + warm-up from scratch for every cell *)
  | Fork  (** warm up once per mechanism, fork each cell off a checkpoint *)

val engine_name : engine -> string

type chaos =
  | Chaos_trap  (** master raises at its first windowed op *)
  | Chaos_hang  (** master spins in simulated time forever *)

val chaos_name : chaos -> string
(** ["trap"] / ["hang"]. *)

val default_rates : float list
val default_ops : int
val quick_ops : int

val default_cell_fuel : int
(** Simulated-time window per cell attempt when [?cell_fuel] is
    omitted (the historic hard run bound, 200M units). *)

val default_warmup : int -> int
(** Warm-up transfers used when [?warmup] is omitted: [ops / 2]. *)

val run_cell :
  seed:int -> ops:int -> ?warmup:int -> rate:float -> mechanism ->
  Codesign_obs.Fault_report.cell
(** One sweep point ([cycle_overhead] computed against an internal
    rate-0 run of the same mechanism), on the reference (rerun)
    engine.  [warmup] defaults to [default_warmup ops]. *)

val sweep :
  ?seed:int -> ?ops:int -> ?warmup:int -> ?rates:float list -> ?jobs:int ->
  ?max_retries:int -> ?cell_fuel:int -> ?deadline_ms:int ->
  ?chaos:chaos -> engine -> Codesign_obs.Fault_report.cell list
(** The transfer sweep alone (no drills), on the given engine — what
    the fork-vs-rerun microbenchmarks and identity checks exercise.
    Cell order: for each mechanism in ladder order (then the [chaos]
    task, when present), the rate-0 baseline then each rate in [rates].

    [jobs] (default 1) shards the sweep over a
    {!Codesign_par.Domain_pool} with one task per mechanism; each worker
    domain builds, warms up and (on {!Fork}) checkpoints its own private
    world, and results merge back in ladder order.  Every cell is a pure
    function of [(seed, rate, ops, warmup, mechanism, max_retries,
    cell_fuel)] — wall deadlines aside — so the cell list — and hence
    the report JSON — is byte-identical at every [jobs] (enforced by
    [test/test_parallel.ml], [test/test_resil.ml] and the CI [cmp]
    step), degraded cells included.

    [max_retries] (default 2) caps per-cell restarts,
    [cell_fuel] (default {!default_cell_fuel}) bounds each attempt in
    simulated time, [deadline_ms] bounds the whole sweep in wall time,
    [chaos] injects a deliberately failing task (see the header). *)

val run :
  ?seed:int -> ?ops:int -> ?warmup:int -> ?rates:float list ->
  ?engine:engine -> ?jobs:int -> ?max_retries:int ->
  ?cell_fuel:int -> ?deadline_ms:int -> ?chaos:chaos -> unit ->
  Codesign_obs.Fault_report.t
(** The full campaign.  Defaults: [seed = 42], [ops = default_ops],
    [warmup = default_warmup ops], [rates = default_rates],
    [engine = Fork], [jobs = 1], [max_retries = 2],
    [cell_fuel = default_cell_fuel], no deadline, no chaos.  [jobs]
    parallelises the sweep exactly as in {!sweep}; the drills always
    run serially on the calling domain, outside the sweep deadline —
    they are plain in-process measurements. *)
