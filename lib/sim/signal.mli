(** Broadcast signals (wires) over the simulation kernel.

    A signal holds a value; writers update it instantaneously and wake
    every process blocked on it.  Waking happens through the kernel's
    event wheel at the current timestamp, so readers observe the value in
    the delta cycle after the write — the usual HDL signal discipline.

    Used for pin-level bus modelling (request/grant/ready wires,
    interrupt lines) and for clock generation in RTL co-simulation.  A
    signal has no propagation delay and takes no arrival lane, so it
    cannot cross a partition boundary: only latency channels do
    ({!Partition.route_channel}). *)

type 'a t

val create : ?name:string -> 'a -> 'a t
(** [create init] makes a signal with initial value [init].  A signal
    belongs to no kernel: a process blocks on it through the kernel that
    runs the process. *)

val read : 'a t -> 'a

val write : 'a t -> 'a -> unit
(** Set the value; wakes waiters only if the value changed (structural
    equality). *)

val pulse : 'a t -> 'a -> unit
(** Set the value and wake waiters even if it is unchanged — models a
    momentary strobe. *)

val name : 'a t -> string

val await_change : 'a t -> 'a
(** Block until the next (value-changing or pulsed) write; returns the
    new value.  Must run inside a kernel process. *)

val await : 'a t -> ('a -> bool) -> 'a
(** Block until the predicate holds (returns immediately if it already
    does). *)

(** {2 Snapshot / restore}

    A snapshot captures the value.  Processes blocked in
    {!await_change}/{!await} hold one-shot continuations and cannot be
    captured: {!restore} drops the current waiter list, abandoning them
    — see {!Kernel.snapshot} for the fork discipline. *)

type 'a snap

val snapshot : 'a t -> 'a snap

val restore : 'a t -> 'a snap -> unit
(** Rewind the value; drop all current waiters. *)
