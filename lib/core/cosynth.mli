(** Heterogeneous multiprocessor co-synthesis (paper §4.2, Fig. 5).

    Given a task graph, a library of processing-element (PE) types with
    prices, and a per-type execution-time characterisation, choose a set
    of PE instances and a task mapping that meets the deadline at
    minimum total price.  Three engines, matching the paper's survey:

    - {!sos} — the exact formulation of Prakash & Parker's SOS [12].
      The paper's authors solved an ILP; with no ILP solver in-box we
      solve the same model exactly by branch-and-bound over (instance
      set, mapping) with price and schedule-feasibility pruning, which
      preserves the property the comparison needs: optimality.
    - {!binpack} — Beck's vector bin-packing heuristic [13]: tasks
      become vectors of utilisation against the deadline, instances are
      bins opened cheapest-first, packing is first-fit-decreasing,
      followed by a repair loop driven by the real schedule.
    - {!sensitivity} — Yen & Wolf's sensitivity-driven iterative
      improvement [9]: start minimal, repeatedly apply the
      configuration change with the best deadline-violation reduction
      per unit price; once feasible, reclaim cost where the schedule
      allows.

    Makespans come from the same deterministic list scheduler throughout
    (communication between different instances pays
    [comm_cycles_per_word] per word). *)

type pe_type = { pt_name : string; price : int }

type interconnect =
  | Point_to_point  (** dedicated links: a transfer only delays its consumer *)
  | Shared_bus
      (** one interconnection network (the Fig. 5 box): inter-PE
          transfers serialise on the shared medium *)

type problem = {
  tg : Codesign_ir.Task_graph.t;
  pe_types : pe_type list;
  exec : int array array;  (** [exec.(task).(pe_type)] cycles *)
  comm_cycles_per_word : int;
  interconnect : interconnect;
}

val problem :
  ?comm_cycles_per_word:int ->
  ?interconnect:interconnect ->
  Codesign_ir.Task_graph.t ->
  pe_type list ->
  exec:int array array ->
  problem
(** Validates dimensions and positivity.  Defaults: comm 2 cycles/word,
    point-to-point interconnect.  Every search allows at most 4
    instances per PE type, which keeps {!sos} finite.
    @raise Invalid_argument on bad input. *)

type solution = {
  pe_set : int list;  (** PE type index per instance *)
  mapping : int array;  (** task -> instance index *)
  price : int;
  makespan : int;
  feasible : bool;  (** makespan within the task graph's deadline *)
  nodes : int;  (** search nodes / iterations expended *)
  algorithm : string;
}

val makespan : problem -> pe_set:int list -> mapping:int array -> int
(** The shared schedule evaluator (exposed for tests and experiments). *)

val price_of : problem -> int list -> int

val sos : problem -> solution
(** Exact branch-and-bound over at most 2,000,000 search nodes; if
    that budget runs out the best-so-far is returned with
    [nodes = 2_000_000] (experiments report this as a timeout). *)

val binpack : problem -> solution

val sensitivity : problem -> solution
(** At most 200 iterations. *)

val pp_solution : Format.formatter -> problem -> solution -> unit
