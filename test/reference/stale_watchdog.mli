(** The watchdog {!Codesign_fault.Watchdog} replaced, kept as a
    differential reference: every kick queues a fresh expiry event
    [timeout] cycles out and never cancels the last one, and a
    generation counter turns all but the newest into no-ops when they
    fire.  The production watchdog keeps one pending expiry event
    instead; test_fault holds the two to the same bites, on the same
    cycles and in the same place among same-time events.  Same
    interface and snapshot discipline as {!Codesign_fault.Watchdog}. *)

type t

val create :
  Codesign_sim.Kernel.t -> timeout:int -> on_bite:(t -> unit) -> t
(** @raise Invalid_argument if [timeout <= 0]. *)

val kick : t -> unit
val stop : t -> unit
val bites : t -> int

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit
