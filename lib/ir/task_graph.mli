(** Coarse-grain task graphs — the co-synthesis and partitioning IR.

    A task graph is a DAG of tasks with per-implementation execution
    profiles and data-volume edges, plus an end-to-end deadline.  A
    graph is aperiodic: {!Codesign.Periodic} releases graphs
    periodically.  This is the representation consumed by the
    HW/SW partitioners ({!Codesign.Partition}), the heterogeneous
    multiprocessor co-synthesisers ({!Codesign.Cosynth}) and the cost
    models ({!Codesign.Cost}).

    Execution profiles carry both a software view (cycles on the host
    instruction-set processor, code bytes) and a hardware view (cycles in
    a dedicated implementation, standalone area, operation mix for
    sharing-aware estimation).  The six partitioning factors of the
    paper's §3.3 all derive from fields here: performance (cycles),
    implementation cost (area / bytes / sharing), modifiability
    ([modifiable]), nature of computation ([parallelism]), concurrency
    (graph shape) and communication (edge [words]). *)

type task = {
  id : int;  (** dense id, equal to the index in {!tasks} *)
  name : string;
  sw_cycles : int;  (** execution time on the host processor, cycles *)
  hw_cycles : int;  (** execution time in a dedicated HW implementation *)
  hw_area : int;  (** standalone area of a dedicated HW implementation *)
  sw_bytes : int;  (** code size when implemented in software *)
  parallelism : float;
      (** nature-of-computation affinity in [0,1]: 1.0 = highly parallel,
          strongly favours hardware *)
  modifiable : bool;
      (** true when the function is expected to change post-design and so
          favours a software implementation *)
  ops : (string * int) list;
      (** operation mix (e.g. [("mul", 4); ("add", 7)]) used by the
          sharing-aware incremental hardware estimator *)
}

type edge = {
  src : int;
  dst : int;
  words : int;  (** data volume transferred per invocation, in words *)
}

type t = {
  name : string;
  tasks : task array;
  edges : edge list;
  deadline : int;  (** end-to-end latency constraint, cycles; 0 = none *)
}

val make :
  ?name:string -> ?deadline:int -> task list -> edge list -> t
(** Builds and validates a task graph.
    @raise Invalid_argument if task ids are not dense [0..n-1] in order,
    an edge endpoint is out of range, an edge is a self-loop, or the edge
    relation is cyclic. *)

val task :
  id:int ->
  name:string ->
  sw_cycles:int ->
  hw_cycles:int ->
  hw_area:int ->
  ?sw_bytes:int ->
  ?parallelism:float ->
  ?modifiable:bool ->
  ?ops:(string * int) list ->
  unit ->
  task
(** Task constructor with sensible defaults: [sw_bytes] defaults to
    [sw_cycles * 2], [parallelism] to [0.5], [modifiable] to [false],
    [ops] to [[]]. *)

val n_tasks : t -> int
val graph : t -> Graph_algo.t

val in_edges : t -> int -> edge list

val topo_order : t -> int list
(** Topological order (always succeeds: validated at construction). *)

val sw_critical_path : t -> int
(** Critical-path latency with every task implemented in software and
    communication free (the all-software latency lower bound, ignoring
    processor contention). *)

val total_sw_cycles : t -> int
(** Sum of software cycles — the single-CPU sequential execution time. *)

val scale_deadline : t -> float -> t
(** [scale_deadline g f] sets the deadline to [f *. sw critical path]
    (rounded); used by workload generators to create feasible-but-tight
    constraints. *)

val pp : Format.formatter -> t -> unit
(** Human-readable summary (name, sizes, bounds). *)
