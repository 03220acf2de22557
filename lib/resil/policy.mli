(** Retry policies: the bounded-retry-with-backoff vocabulary of the
    retry loops {e inside} a simulation.

    Two loops use it: the tlm sweep cell's
    {!Codesign_fault.Faulty_bus.read_retry} / [write_retry], which wait
    out a linear ramp in simulated time, and the
    {!Codesign_fault.Faulty_chan} ARQ frame budget, which retransmits
    back to back.  A {!t} names the whole family: how many retries, and
    what delay grows between them.  Harness-level retries (a sweep cell,
    a fuzz case, an experiment) are {!Supervisor.run}'s own loop, which
    needs no backoff and checks the wall deadline between attempts.

    Timing contract: a zero delay performs {e no} wait, so a
    [No_backoff] policy adds nothing to simulated time — which is how
    the rebased {!Codesign_fault.Faulty_chan} and tlm retry loops
    reproduce their pre-policy behaviour byte for byte. *)

type backoff =
  | No_backoff  (** retry immediately *)
  | Linear of int  (** [base * (attempt + 1)]: the historic tlm ramp *)

type t = {
  max_retries : int;
      (** retries after the first attempt; total attempts = max_retries + 1 *)
  backoff : backoff;
}

val create : max_retries:int -> backoff:backoff -> t
(** @raise Invalid_argument on a negative count or delay. *)

type 'e exhausted = { attempts : int; last_error : 'e }
(** The budget ran out: [attempts] were made (>= 1), the last one
    failing with [last_error]. *)

val retry :
  t ->
  ?wait:(int -> unit) ->
  ?on_retry:(attempt:int -> delay:int -> unit) ->
  (attempt:int -> ('a, 'e) result) ->
  ('a, 'e exhausted) result
(** [retry p f] runs [f ~attempt:0], and on [Error _] retries up to
    [p.max_retries] times, calling [on_retry] then [wait delay] (only
    when the delay is positive — a zero delay performs no wait) before
    each retry.  The delay before retry [attempt] (0-based) is 0 under
    [No_backoff] and [base * (attempt + 1)] under [Linear base].
    [wait] defaults to ignoring the delay; pass
    {!Codesign_sim.Kernel.wait} from inside a process for simulated-time
    backoff.  [f] is expected to return [Error]; exceptions propagate to
    the caller ({!Supervisor} is the layer that converts exceptions into
    retries). *)
