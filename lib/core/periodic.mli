(** Periodic, multi-application co-synthesis — the distributed embedded
    systems Yen & Wolf's sensitivity-driven co-synthesis [9] actually
    targets (paper §4.2): several task graphs, each released
    periodically, sharing one set of processing elements.

    The model: each application [i] is a task graph with a period
    [p_i]; instance [k] is released at [k * p_i] and must complete by
    its next release (implicit deadline).  Feasibility is checked
    constructively over one hyperperiod: every instance of every
    application is expanded into a release-timed task set and
    list-scheduled onto the candidate PE configuration; the
    configuration is feasible iff every instance meets its deadline.
    This is a stronger (schedule-based) test than utilisation bounds and
    matches how [9] evaluates candidate architectures.

    {!synthesize} is the sensitivity-driven loop lifted to this setting:
    start from one cheapest PE, repeatedly apply the configuration
    change with the best lateness reduction per unit price until the
    hyperperiod schedule is feasible, then reclaim cost. *)

type app = {
  graph : Codesign_ir.Task_graph.t;
  period : int;
  exec : int array array;  (** [exec.(task).(pe_type)] *)
}

type problem = { apps : app list; pe_types : Cosynth.pe_type list }

val problem : app list -> Cosynth.pe_type list -> problem
(** Validates dimensions, positive periods, and that the hyperperiod
    stays tractable (<= 64 expanded instances).  A data word crossing
    between PE instances costs 2 cycles.
    @raise Invalid_argument otherwise. *)

val hyperperiod : problem -> int

type verdict = {
  feasible : bool;
  max_lateness : int;  (** worst completion - deadline over all instances *)
  utilisation : float;  (** busy time / (PEs * hyperperiod) *)
}

val check : problem -> pe_set:int list -> verdict
(** Expand one hyperperiod and schedule it on the given PE instances
    (tasks are mapped greedily: each ready task goes to the instance
    giving it the earliest finish — the dynamic list scheduling [9]
    uses for candidate evaluation). *)

type solution = {
  pe_set : int list;
  price : int;
  verdict : verdict;
  iterations : int;
}

val synthesize : problem -> solution
(** Sensitivity-driven PE selection: at most 100 iterations, at most 6
    instances per PE type. *)

