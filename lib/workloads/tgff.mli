(** TGFF-style synthetic task-graph generation (deterministic).

    Task attributes follow the four computation archetypes that drive
    HW/SW affinity in the paper's §3.3 "nature of computation"
    discussion: DSP-like (multiply-heavy, highly parallel), control-like
    (branchy, serial, often modifiable), bit-manipulation (logic-heavy,
    parallel) and memory-bound (load/store-heavy, indifferent).  The
    operation mix of each task feeds the sharing-aware area estimator,
    and its standalone hardware area is derived from that mix, so the
    generated graphs are internally consistent with the cost models. *)

type spec = {
  seed : int;
  n_tasks : int;
  layers : int;  (** depth of the layered DAG *)
  edge_prob : float;  (** probability of an edge between adjacent-layer pairs *)
  skip_prob : float;  (** probability of a layer-skipping edge *)
  sw_cycles_range : int * int;
  words_range : int * int;  (** per-edge data volume *)
  deadline_factor : float;
      (** deadline = factor * software critical path; 0 = no deadline *)
  modifiable_prob : float;
}

val default_spec : spec
(** seed 1, 12 tasks, 4 layers, edge 0.5, skip 0.15, cycles 200-2000,
    words 1-16, deadline 0.75 (tight: forces hardware), modifiable 0.2. *)

val generate : spec -> Codesign_ir.Task_graph.t
(** The graph is always connected to at least one source-sink path;
    every non-first-layer task has at least one predecessor. *)
