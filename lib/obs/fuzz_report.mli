(** Machine-readable results of a differential-fuzzer run ([lib/fuzz]),
    following the same schema discipline as {!Bench_report}: a versioned
    JSON object with a validating reader, so CI can archive failures and
    a later session can re-shrink a saved counterexample.

    A {!failure} carries everything needed to reproduce: the exact
    per-case seed (replay with [codesign_cli fuzz --seed <case_seed>
    --count 1]), the category that failed, a human-readable detail of
    the first disagreement, and — for behaviour cases — the shrunk
    counterexample program in {!Codesign_ir.Behavior.pp} concrete
    syntax. *)

type failure = {
  f_category : string;  (** "behavior" | "ladder" | "taskgraph" | "fault" *)
  f_seed : int;  (** per-case seed: replay with [--seed N --count 1] *)
  f_detail : string;  (** first disagreement, human-readable *)
  f_program : string option;  (** shrunk counterexample (behaviour cases) *)
  f_shrunk_stmts : int option;  (** static statements after shrinking *)
}

type t = {
  schema_version : int;
  seed : int;  (** base seed of the run; case [i] uses [seed + i] *)
  count : int;
  behavior_cases : int;
  ladder_cases : int;
  taskgraph_cases : int;
  fault_cases : int;
      (** fault-injected oracle cases ([--fault] mode; 0 when the mode
          is off, and when reading pre-fault-mode report files) *)
  rtl_blocks : int;  (** FSMD blocks differentially executed *)
  wall_s : float;
  failures : failure list;
  degraded : (int * Degraded.t) list;
      (** schema v2: cases whose harness died after its retries or was
          cut off by the wall deadline, keyed by case seed — the
          category counters above count only completed cases.
          [Degraded.elapsed] is 0 (no simulated clock spans a fuzz
          case). *)
}

val schema_version : int
(** 2.  v2 added [degraded] (supervised runs that complete despite
    dead or deadline-cut cases).  The reader accepts v1 files
    ([degraded] absent = []). *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Validates field presence, types and [schema_version]. *)

val read : path:string -> (t, string) result
