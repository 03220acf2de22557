(** A kernel watchdog timer: the classic last-line-of-defence against a
    hung interface.

    The supervised workload calls {!kick} at every liveness point (e.g.
    once per completed bus operation).  If [timeout] simulated cycles
    pass without a kick, [on_bite] runs once and the watchdog disarms
    until the next kick — so one hang produces exactly one bite, however
    long it lasts, and a workload that hangs forever still lets the
    simulation terminate (the watchdog schedules bare {!Kernel.at}-style
    callbacks rather than parking a process, so it never holds the event
    queue open by itself).

    However many kicks come, at most one expiry event is pending.  A
    kick moves the deadline to [now + timeout] and reserves the
    kernel's next insertion sequence number ({!Codesign_sim.Kernel.reserve});
    it queues an event only when none is pending.  When that event
    fires before the deadline, it re-queues itself at the deadline under
    the number the last kick reserved ({!Codesign_sim.Kernel.at_reserved}).
    A bite therefore lands [timeout] cycles after the last kick, and
    among the events of that cycle it fires exactly where a fresh timer
    queued by that kick would have fired: after the events scheduled for
    that cycle before the kick, before those scheduled after it.
    {!stop} bumps a generation counter, which makes the pending event
    fire as a no-op. *)

type t

val create :
  Codesign_sim.Kernel.t -> timeout:int -> on_bite:(t -> unit) -> t
(** Created disarmed; the first {!kick} arms it.
    @raise Invalid_argument if [timeout <= 0]. *)

val kick : t -> unit
(** Feed the dog: (re)arms a fresh [timeout] window. *)

val stop : t -> unit
(** Disarm; the pending expiry event becomes inert. *)

val bites : t -> int
(** Expiries so far. *)

(** {2 Snapshot / restore}

    A snapshot holds the generation counter, the pending flag, the
    deadline, the reserved sequence number and the bite count.  The
    pending expiry event itself lives in the kernel's event heap
    ({!Codesign_sim.Kernel.snapshot}), so restore the watchdog together
    with its kernel, from snapshots taken at the same moment: the
    restored heap then holds exactly the event the restored pending flag
    speaks of, and events of an older generation stay inert. *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit
