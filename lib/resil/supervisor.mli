(** Restart supervision: the one deadline / retry / degrade loop of the
    framework.

    Every unit of work that must degrade instead of abort — a fault
    campaign's sweep cell, a fuzz case, an experiment table, a drill
    episode — runs through {!run}.  Each attempt of the body sets up
    its own world: it builds one, or rewinds a checkpoint (a kernel
    snapshot plus whatever model state rides along — see the fork
    discipline in {!Codesign_sim.Kernel}), so a failed attempt leaves
    nothing for the supervisor to roll back.  When the body fails — by
    returning [Error], or by raising, which is how a trapped CPU or a
    {!Codesign_sim.Kernel.Deadlock} surfaces — the supervisor retries
    at once (harness retries are deterministic, so pacing buys
    nothing).  The wall deadline is checked before {e every} attempt: a
    retry is work not yet started, so once the deadline has passed no
    further attempt runs.  [max_retries] is the restart-intensity cap:
    once it is spent the supervisor gives up with a
    {!Codesign_obs.Degraded.t} record. *)

val run :
  max_retries:int ->
  budget:Budget.t ->
  (unit -> ('a, string) result) ->
  ('a, Codesign_obs.Degraded.t) result
(** [run ~max_retries ~budget body]: when [budget]'s wall deadline has
    passed, [Error] with ["deadline exceeded"] and 0 attempts, without
    running [body].  Otherwise runs [body ()], up to [max_retries + 1]
    times until it returns [Ok].  An exception from [body] becomes the
    error [Printexc.to_string exn].  The deadline is checked again
    before each retry: once it has passed, [run] stops after the failed
    attempt.  Giving up, [Error] carries the last attempt's error and
    the number of attempts made.  The record's [elapsed] is 0:
    simulated time is the caller's to fill in.
    @raise Invalid_argument on a negative [max_retries]. *)
