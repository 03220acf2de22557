(** The shared worker-domain pool: deterministic fan-out of an indexed
    task array over [Domain.spawn].

    Every embarrassingly parallel hot loop in the framework — the
    fault-campaign sweep, the fuzz corpus, the EXP-3M mixed-level grid
    and the bench harness's experiment tables — runs through {!map}, so
    there is exactly one pool implementation and one determinism
    argument:

    - {b Results merge by index.}  Workers pull the next unclaimed index
      from a shared atomic counter (self-balancing: an expensive task
      occupies one domain while the others drain the rest), but each
      result is stored at its task's index and the returned array is in
      task order.  Output is therefore independent of worker scheduling,
      and [map ~jobs:n f tasks] is observationally [Array.map f tasks]
      for every [n] — provided [f] touches no shared mutable state,
      which is the contract every caller in this repo satisfies (each
      task builds its own kernels/worlds from its own seed).

    - {b Per-domain kernel counters merge back.}  Each worker domain
      measures the {!Codesign_sim.Kernel.domain_totals} delta its tasks
      contributed and the pool folds every delta into the calling
      domain's totals after the join (commutative sums, so the merged
      value is deterministic too).  A measurement layer wrapped around a
      [map] call sees the same event/activation/scheduled/kernel totals
      at any [jobs].

    - {b Worker exceptions surface, they never hang the pool.}  An
      exception inside [f] is caught on the worker, the remaining tasks
      still run, every domain is joined, counters are merged — and then
      {e every} failure is re-raised as one {!Worker_error} carrying
      the index-ordered failure list.  The serial path wraps exceptions
      identically, so error behaviour does not depend on [jobs] either.
      The pool never retries and never degrades: a unit of work that
      must survive failure runs under {!Codesign_resil.Supervisor}
      inside the task, so an exception that reaches the pool is a bug,
      not a degraded result. *)

type failure = {
  index : int;  (** index of the failing task in the input array *)
  task : string;  (** caller-supplied label ([""] when unnamed) *)
  message : string;  (** [Printexc.to_string] of the exception *)
}

exception Worker_error of failure list
(** Raised by {!map} (on the calling domain, after all workers have been
    joined) when tasks raised: the complete failure list in ascending
    index order — never empty, never a partial view. *)

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count ())]: what callers should
    use when the user did not pick a [--jobs] value. *)

val map : ?jobs:int -> ?name:(int -> string) -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f tasks] applies [f] to every element of [tasks] on a
    pool of [jobs] domains (the calling domain works too; [jobs - 1]
    helpers are spawned, and never more than there are tasks) and
    returns the results in task order.  [jobs] defaults to
    {!default_jobs} and is clamped to at least 1; [jobs <= 1] runs
    entirely on the calling domain with no spawns.  [name] labels tasks
    for {!Worker_error} messages. *)
