(** The degraded-cell record shared by {!Fault_report} (schema v3) and
    {!Fuzz_report} (schema v2): how a supervised task died after its
    retries were spent, recorded so the run can {e complete} with
    partial results instead of aborting.  [Codesign_resil.Supervisor.run]
    is the one producer.

    Determinism contract: [elapsed] is {e simulated} time at the final
    failure (0 where no simulated clock applies, e.g. fuzz harness
    failures) — never wall time — so a degraded report is still a pure
    function of seed + retry cap and byte-identical at any [--jobs]. *)

type t = {
  error : string;  (** the last attempt's error *)
  attempts : int;  (** attempts made before giving up (>= 1; 0 = never
                       started, e.g. cut off by a wall deadline) *)
  elapsed : int;  (** simulated time units at the final failure *)
}

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
