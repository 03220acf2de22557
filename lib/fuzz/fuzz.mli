(** The fuzzing campaign driver.

    {!run} executes [count] cases.  Case [i] derives its own generator
    from [seed + i], so any failure is replayable in isolation:
    [run ~seed:(seed + i) ~count:1 ()] regenerates exactly the failing
    input.  The low bits of the case seed pick the domain — one case in
    sixteen exercises the echo-system abstraction ladder, two in
    sixteen the task-graph partitioners, the rest generated behaviours
    through {!Diff.check_behavior}.

    A disagreeing behaviour is first minimised with {!Shrink.minimize}
    (keeping the oracle's verdict as the predicate) and reported with
    its pretty-printed source and shrunk statement count.

    [fault] (default off) additionally routes two of the sixteen
    dispatch slots to the fault-injection oracles of
    {!Codesign_fault.Oracle}: one checks campaign-cell determinism and
    accounting invariants, the other pushes a generated behaviour's
    output trace through the fault-injected ARQ channel transport —
    and shrinks the behaviour on divergence, so fault-triggered
    counterexamples minimise exactly like functional ones.

    [jobs] (default 1) shards the corpus over a
    {!Codesign_par.Domain_pool}, one task per case.  Each case already
    owns an independent generator derived from the root seed
    ([Rng.create (seed + i)]) and builds its own simulation worlds, so
    the per-case outcomes are pure functions of the case seed; the pool
    merges them back by case index, which makes the resulting
    {!Codesign_obs.Fuzz_report.t} — counters, failure list and failure
    order — identical at every [jobs] (only [wall_s] reflects the real
    elapsed time).  Enforced by [test/test_parallel.ml] and the CI
    [cmp] step.

    [max_retries] and [deadline_ms] make the run degrade instead of
    abort: every case runs under {!Codesign_resil.Supervisor.run}, so a
    case whose harness {e raises} is retried up to [max_retries] times
    on the worker that claimed it, and a case still failing — or not
    yet started when the wall deadline passes — is recorded in the
    report's [degraded] list (keyed by case seed, with the error and
    attempt count) while the campaign completes.  The category counters
    count completed cases only.  With the default [max_retries = 0] and
    no deadline, a raising harness degrades after one attempt.
    Degraded entries are jobs-invariant; deadline cut-offs are
    inherently wall-dependent and meant as a CI safety net, not for
    byte-compared runs.

    [transform_asm] is threaded through to {!Diff.check_behavior} for
    bug-injection tests. *)

val run :
  ?seed:int ->
  ?count:int ->
  ?fault:bool ->
  ?jobs:int ->
  ?max_retries:int ->
  ?deadline_ms:int ->
  ?transform_asm:
    (Codesign_isa.Asm.item list -> Codesign_isa.Asm.item list) ->
  unit ->
  Codesign_obs.Fuzz_report.t
(** Defaults: [seed = 42], [count = 200], [fault = false], [jobs = 1],
    [max_retries = 0], no deadline. *)
