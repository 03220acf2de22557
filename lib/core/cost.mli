(** Partition evaluation: the cost model every HW/SW partitioner in this
    framework optimises against.

    A {!partition} maps each task of a {!Codesign_ir.Task_graph} to
    software (the host processor) or hardware (a dedicated datapath).
    {!evaluate} derives:

    - {b latency}: a deterministic list schedule of the task DAG where
      software tasks serialise on the single CPU, hardware tasks run
      fully concurrently, each taking its hardware cycles scaled by its
      nature-of-computation affinity (highly parallel tasks gain more
      from hardware), and every data edge crossing the HW/SW boundary
      pays [comm_cycles_per_word] per word (§3.3 "communication");
    - {b hardware area}: either the sum of standalone task areas, or the
      sharing-aware incremental area of Vahid & Gajski [18] in which
      hardware-resident tasks share functional units ([sharing]);
    - {b software bytes}, boundary traffic, deadline slack and speedup
      over the all-software schedule.

    {!objective} folds an evaluation into a single scalar using the six
    §3.3 factors, for use by {!Partition}'s search algorithms. *)

type partition = bool array
(** [p.(i)] true = task [i] in hardware. *)

type params = {
  comm_cycles_per_word : int;  (** boundary crossing cost (default 4) *)
  sharing : bool;  (** sharing-aware area (default true) *)
}

val default_params : params

type eval = {
  latency : int;
  all_sw_latency : int;
  speedup : float;  (** all-SW latency / latency *)
  hw_area : int;
  sw_bytes : int;
  comm_words : int;  (** words crossing the boundary per invocation *)
  n_hw : int;
  meets_deadline : bool;  (** true when no deadline or latency within it *)
  modifiable_in_hw : int;  (** §3.3 "modifiability" violations *)
}

val all_sw : Codesign_ir.Task_graph.t -> partition
val all_hw : Codesign_ir.Task_graph.t -> partition

val evaluate :
  ?params:params -> Codesign_ir.Task_graph.t -> partition -> eval
(** @raise Invalid_argument if the partition length differs from the
    task count. *)

val objective : Codesign_ir.Task_graph.t -> eval -> float
(** Lower is better: area 1.0 per unit, latency 0.5 per cycle, 1000 per
    cycle past the deadline, 500 per modifiable task in hardware and
    0.01 per software byte, so deadline misses dominate, then area,
    then latency. *)

val area_of_partition :
  ?params:params -> Codesign_ir.Task_graph.t -> partition -> int
(** Hardware area only (cheaper than a full {!evaluate} when a search
    only needs the area side). *)
