(** Machine-readable results of a fault-injection campaign
    ([lib/fault]), following the same schema discipline as
    {!Bench_report} and {!Fuzz_report}: a versioned JSON object with a
    validating reader.

    Unlike {!Fuzz_report} this schema deliberately carries {e no wall
    time}: every field is a function of the seed and the campaign
    parameters alone, so two runs with the same seed must produce
    byte-identical files — that is the replay contract CI checks.

    A {!cell} is one (mechanism, fault-rate) point of the sweep: a
    fixed number of data-transfer operations pushed through one Fig. 3
    interface level while the injector perturbs the transport.  A
    {!drill} is one of the targeted site drills (memory scrubbing,
    interrupt lines, CPU traps, RTL stuck-at faults) that exercise the
    injector sites the transfer sweep cannot reach. *)

type cell = {
  mechanism : string;
      (** "pin" | "tlm" | "token" | "degrade" — the interface level and
          its recovery mechanism (see {!Codesign_fault.Campaign}) *)
  rate : float;  (** per-decision-point fault probability *)
  ops : int;  (** transfer operations attempted *)
  faulted_ops : int;  (** ops during which >= 1 perturbation landed *)
  injected : int;  (** effective perturbation events *)
  detected : int;  (** perturbations the mechanism itself detected *)
  recovered_ops : int;  (** faulted ops whose data still arrived intact *)
  lost_ops : int;  (** ops whose sink word is wrong at audit time *)
  retries : int;  (** retry / retransmit attempts spent *)
  watchdog_bites : int;  (** watchdog expiries (pin-level hangs) *)
  degraded_to : string option;
      (** final level of the graceful-degradation ladder, when the
          mechanism is "degrade" *)
  sim_cycles : int;  (** simulated cycles to finish the workload *)
  cycle_overhead : float;
      (** (cycles - fault-free cycles) / fault-free cycles, same
          mechanism at rate 0 *)
  recovery_rate : float;  (** recovered_ops / faulted_ops (1.0 if none) *)
  mean_detect_latency : float;
      (** mean cycles from injection to detection; undetected faults are
          charged the end-of-run audit time *)
  checksum_ok : bool;  (** FNV-1a over the sink matches the expected *)
  degraded : Degraded.t option;
      (** schema v3: present iff the cell's supervised run spent its
          retries and fuel and was declared dead — counters
          above are then zeroed placeholders, not measurements *)
}

type drill = {
  d_site : string;  (** "memory" | "irq" | "cpu" | "rtl" *)
  d_mechanism : string;  (** protection mechanism (or "none") *)
  d_injected : int;
  d_detected : int;
  d_recovered : int;
}

type t = {
  schema_version : int;
  seed : int;
  ops_per_cell : int;
  warmup_per_cell : int;
      (** fault-free warm-up transfers run before each cell's injection
          window opens (schema v2; cells report only the windowed ops) *)
  rates : float list;  (** fault rates swept (cells also cover rate 0) *)
  cells : cell list;
  drills : drill list;
}

val schema_version : int
(** 3.  v2 added [warmup_per_cell] when the campaign moved to a
    warm-up + injection-window structure (fork-from-checkpoint); v3
    added the optional per-cell [degraded] record (supervised
    campaigns that complete despite dead cells).  The reader accepts
    v2 files ([degraded] absent = [None] everywhere). *)

val min_schema_version : int
(** 2 — oldest version {!of_json} accepts. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val write : path:string -> t -> unit
(** Pretty-printed JSON, trailing newline.  Deterministic: same [t]
    value, byte-identical file. *)

val read : path:string -> (t, string) result
