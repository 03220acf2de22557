(** A fault-injecting wrapper around a {!Codesign_bus.Transport.t},
    with two views of the same faulty medium — one per rung of the
    Fig. 3 interface ladder:

    {b Raw (pin-level)} [raw_read]/[raw_write]: what a pin-accurate
    master sees.  Corruption is silent (the flipped word is simply what
    arrives), and a dropped response hangs the master for 2000 cycles
    before the line floats to 0 — only an external watchdog notices.

    {b Checked (bus-transaction level)} [read]/[write]: transfers carry
    a parity tag (FNV-1a over the true datum, {!Codesign_obs.Checksum}),
    so corruption comes back as [Error Corrupt] after a normal-latency
    transfer, and a dropped response comes back as [Error Timeout] after
    a bounded [timeout] wait.  Checked writes read the word back and
    verify.  Typed errors are what make bounded retry+backoff possible
    one layer up.

    Fault mix per firing decision point: transient bit flip (common),
    dropped response (less common), stuck-at data line (rare but
    persistent — the line holds a bit at a fixed value for
    [stuck_cycles], defeating retries that fit inside the window).
    Every {e effective} perturbation — data actually altered or a
    response actually dropped — is reported to the injector;
    [Error _] results report detections. *)

type error =
  | Corrupt  (** parity mismatch on the transferred word *)
  | Timeout  (** no response within the bounded wait *)

type t

val create :
  ?timeout:int ->
  ?stuck_cycles:int ->
  Codesign_sim.Kernel.t ->
  Injector.t ->
  Codesign_bus.Transport.t ->
  t
(** Defaults: [timeout = 64], [stuck_cycles = 600].
    Any transport backend can be made faulty — the injector perturbs
    whatever medium is behind it. *)

val raw_read : t -> int -> int
val raw_write : t -> int -> int -> unit
val read : t -> int -> (int, error) result
val write : t -> int -> int -> (unit, error) result

val stuck_active : t -> bool
(** A stuck-at window is currently open. *)

val error_name : error -> string
(** ["corrupt"] / ["timeout"]. *)

(** {2 Checked transfers under a retry policy}

    The bounded-retry idiom the checked view exists for, packaged: the
    transfer is re-attempted per {!Codesign_resil.Policy}, backoff
    spent as {e simulated} time ({!Codesign_sim.Kernel.wait} — call
    from inside a process).  On exhaustion the typed error of the last
    attempt comes back wrapped in {!Codesign_resil.Policy.exhausted}
    with the attempt count — what the campaign's tlm mechanism records
    as [retries]/[lost]. *)

val read_retry :
  t ->
  policy:Codesign_resil.Policy.t ->
  ?on_retry:(attempt:int -> delay:int -> unit) ->
  int ->
  (int, error Codesign_resil.Policy.exhausted) result

val write_retry :
  t ->
  policy:Codesign_resil.Policy.t ->
  ?on_retry:(attempt:int -> delay:int -> unit) ->
  int ->
  int ->
  (unit, error Codesign_resil.Policy.exhausted) result

(** {2 Snapshot / restore}

    Captures the stuck-at window state plus the wrapped transport's
    snapshot (see {!Codesign_bus.Transport.snapshot}).  The shared
    {!Injector} is not captured; forked campaigns {!Injector.reinit} it
    per fork. *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit
