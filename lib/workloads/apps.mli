(** Full applications assembled from behaviours and channels — the
    system-level workloads of the co-simulation and multi-threaded
    co-processor experiments.

    All processes are pure {!Codesign_ir.Behavior} values; mapping (SW
    vs HW) is chosen by the caller and can be changed with
    {!Codesign_ir.Process_network.remap}. *)

val producer : ?name:string -> chan:string -> count:int -> unit -> Codesign_ir.Behavior.proc
(** Sends [count] deterministic samples ([(7i mod 23) - 5]) on [chan]. *)

val transform :
  ?name:string ->
  in_chan:string ->
  out_chan:string ->
  count:int ->
  ?work:int ->
  unit ->
  Codesign_ir.Behavior.proc
(** Receives [count] items, applies a MAC-flavoured transform iterated
    [work] times (default 8) per item, and forwards the result. *)

val consumer :
  ?name:string -> chan:string -> count:int -> port:int -> unit -> Codesign_ir.Behavior.proc
(** Receives [count] items, accumulates, and writes the final sum to an
    output [port]; result variable ["acc"]. *)

val pipeline :
  ?stages:int -> ?count:int -> ?work:int -> unit -> Codesign_ir.Process_network.t
(** producer -> [stages] transforms -> consumer (default 2 transforms,
    16 items, FIFO depth 2); everything initially mapped to software.
    The consumer's output port is 1. *)

val fork_join :
  ?workers:int ->
  ?items:int ->
  ?work:int ->
  unit ->
  Codesign_ir.Process_network.t
(** A splitter distributing [items] round-robin to [workers] transform
    workers (default 3), merged by a joiner that emits the checksum on
    port 1 — the multi-threaded co-processor shape of paper Fig. 9. *)

val mesh :
  ?stages:int ->
  ?lanes:int ->
  ?count:int ->
  ?work:int ->
  ?hop_latency:int ->
  unit ->
  Codesign_ir.Process_network.t
(** A wide [stages] x [lanes] pipeline mesh (defaults 3 x 4, 16 items,
    work 8): every lane is a producer -> transform chain -> consumer
    pipeline, but each hop rotates one lane left, weaving the lanes into
    a single connected network.  All hops are latency channels
    ([hop_latency], default 4, must be >= 1), so any lane-wise partition
    of the mesh has per-link lookahead — the workload for the
    partitioned-vs-serial kernel benchmarks.  Everything is mapped to
    hardware; each consumer emits on port 1 and its expected sum is
    {!expected_pipeline_output} (identical producer streams, rotation is
    a permutation).
    @raise Invalid_argument on stages/lanes < 1 or hop_latency < 1. *)

val mesh_partition :
  ?stages:int ->
  ?lanes:int ->
  partitions:int ->
  unit ->
  (string * int) list
(** Lane-based partition map for {!mesh} (same [stages]/[lanes]
    defaults): process of lane [l] -> partition [l mod partitions].
    Every inter-stage hop crosses a boundary when [partitions > 1]. *)

val expected_pipeline_output : count:int -> work:int -> stages:int -> int
(** Reference output of {!pipeline}'s consumer port (computed with plain
    OCaml arithmetic, for asserting co-simulation correctness). *)
