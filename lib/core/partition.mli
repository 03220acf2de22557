(** Hardware/software partitioning algorithms over task graphs —
    the central co-design decision of the paper's §3.3 / §4.5.

    All four algorithms optimise {!Cost.objective} under an optional
    hardware area budget and return the partition together with its
    evaluation and search statistics:

    - {!greedy}: profile-driven hot-spot extraction in the spirit of
      COSYMA [17]: repeatedly move the software task with the best
      latency-gain-per-area ratio into hardware while the deadline is
      missed or the objective improves.
    - {!kl}: Kernighan-Lin-flavoured iterative improvement: passes of
      locked best-single-move steps, accepting the best prefix of each
      pass (so moves that temporarily worsen the objective can still be
      traversed).
    - {!simulated_annealing}: classic SA over single-task flips with a
      geometric cooling schedule and a deterministic seeded PRNG.
    - {!gclp}: Global-Criticality/Local-Phase (Kalavade & Lee [1][5]):
      tasks are visited in topological order; a global criticality
      measure (how much the remaining schedule threatens the deadline)
      selects between a time-driven and an area-driven objective for
      each task, modulated by the task's local affinity (nature of
      computation, §3.3).

    Determinism: equal inputs (and seed) give equal outputs. *)

type result = {
  partition : Cost.partition;
  eval : Cost.eval;
  objective : float;
  evaluations : int;  (** cost-model invocations the search used *)
  algorithm : string;
}

val greedy :
  ?params:Cost.params -> ?max_area:int -> Codesign_ir.Task_graph.t -> result

val kl :
  ?params:Cost.params -> ?max_area:int -> Codesign_ir.Task_graph.t -> result
(** At most 8 passes. *)

val simulated_annealing :
  ?max_area:int -> ?seed:int -> Codesign_ir.Task_graph.t -> result
(** Seed 42 by default; [200 * n_tasks] flips, starting at temperature
    1000 and cooling by 0.97 every 20 flips.  Scores with
    {!Cost.default_params}, as do {!gclp} and {!exhaustive}. *)

val gclp : ?max_area:int -> Codesign_ir.Task_graph.t -> result

val exhaustive : ?max_area:int -> Codesign_ir.Task_graph.t -> result
(** Exact optimum by enumeration — for validating the heuristics.
    @raise Invalid_argument above {!exhaustive_max_tasks} tasks. *)

val exhaustive_max_tasks : int
(** 20: {!exhaustive} scores all 2{^n} partitions. *)

val respects_budget : ?params:Cost.params -> max_area:int option -> Codesign_ir.Task_graph.t -> Cost.partition -> bool
