(** The deterministic fault source every wrapper in this library draws
    from, and the single accounting sink they report back to.

    One injector owns one {!Codesign_ir.Rng} stream (seeded, replayable)
    and one fault [rate].  Wrappers call {!fires} at each {e decision
    point} (a bus transfer, a token send, a memory-scrub tick, ...) to
    ask whether a fault lands there, and {!shape} for the follow-up
    draws that pick the fault's kind, bit position, duration and so on.
    Because every draw comes from the same stream in program order, a
    campaign is a pure function of its seed.

    Accounting distinguishes {e effective} perturbations — the wrapper
    actually altered data, dropped a response, raised a spurious line —
    from mere decision draws: only the former call {!injected_event}.
    When a recovery mechanism notices a perturbation it calls
    {!detected_event}, which pops the oldest pending injection stamp at
    that site (FIFO) and accumulates injection-to-detection latency.
    Whatever is left pending at the end of a run was never detected
    in-flight; {!charge_pending} lets the campaign charge those the
    end-of-run audit time, which is how pin-level's "you only find out
    at the end" shows up as a huge mean latency. *)

type site =
  | Bus  (** bus transfers: flips, drops, stuck-at lines *)
  | Mem  (** memory words: bit flips *)
  | Irq  (** interrupt lines: lost / spurious *)
  | Cpu  (** CPU steps: spurious traps, register flips *)
  | Chan  (** simulation channels: drop / duplicate / corrupt tokens *)
  | Gate  (** RTL netlist gates: stuck-at-0/1 *)

type t

val create : ?rate:float -> ?active:bool -> seed:int -> unit -> t
(** [rate] (default 0.0) is the per-decision-point fault probability.
    [active] (default [true]) gates the whole injector: while inactive,
    {!fires} answers [false] without drawing — see {!set_active}.
    @raise Invalid_argument unless [0.0 <= rate <= 1.0]. *)

val reinit : t -> rate:float -> seed:int -> unit
(** Reset the injector in place to the state [create ~rate ~active:false
    ~seed ()] would produce: reseeds the Rng stream, zeroes every
    counter and pending queue, and deactivates.  The forked fault
    campaigns reuse one injector across checkpoint restores this way.
    @raise Invalid_argument unless [0.0 <= rate <= 1.0]. *)

val set_active : t -> bool -> unit
(** Open or close the injection window.  While inactive, {!fires} is
    [false] and consumes {e no} Rng draw — so a warm-up phase run before
    activation leaves the fault stream untouched, and the faults landed
    in the window are a pure function of (seed, window ops) regardless
    of how the world reached the window. *)

val fires : t -> bool
(** One decision draw: [true] with probability [rate].  When active,
    always consumes exactly one Rng draw, so control flow downstream of
    the answer does not perturb the stream for later decision points;
    when inactive, answers [false] and draws nothing. *)

val shape : t -> Codesign_ir.Rng.t
(** The stream for follow-up draws (fault kind, bit index, ...). *)

val injected_event : t -> site -> time:int -> unit
(** Record one effective perturbation, stamped with the sim time. *)

val detected_event : t -> site -> time:int -> unit
(** A mechanism detected a perturbation at [site]: pops the oldest
    pending stamp there (FIFO) and adds [time - stamp] to the latency
    sum.  A detection with no pending stamp (e.g. a parity check tripped
    twice over one fault) still counts as detected, with zero latency. *)

val injected : t -> int
(** Total effective perturbations. *)

val detected : t -> int
val latency_sum : t -> int

val charge_pending : t -> time:int -> unit
(** Resolve every pending stamp at [time] {e without} counting them as
    detected — they were found by the audit, not by a mechanism — but
    charging their latency, so [mean latency = latency_sum / injected]
    reflects how long faults lived before {e anything} noticed. *)
