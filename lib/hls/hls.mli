(** End-to-end high-level synthesis: the hardware implementation path of
    the co-design flow (paper §3.2 / §4.5, refs [6][17]).

    Two services:

    - {!synthesize_block}: schedule, bind and generate a verifiable FSMD
      for one data-flow block, with a full area/latency report.
    - {!estimate}: synthesise every block of a {!Codesign_ir.Behavior}
      under a shared datapath and report invocation cycles and total
      area.  This is the hardware-side cost model the partitioners query
      when they consider moving a behaviour into hardware.

    Estimation composes with {!Codesign_rtl.Estimate.Incremental} for
    cross-task sharing: [estimate] returns the op mix alongside area so a
    partitioner can feed it to the incremental estimator instead of using
    the standalone area. *)

type report = {
  latency : int;  (** FSMD cycles for one invocation (incl. commit) *)
  fu_alloc : (string * int) list;
  fu_area : int;
  registers : int;  (** shared-register count (left-edge) *)
  reg_area : int;
  mux_area : int;
  ctrl_area : int;  (** state register + next-state logic *)
  total_area : int;
}

type scheduler =
  | List_sched of (string * int) list
      (** resource-constrained; the list gives per-class FU bounds *)
  | Force_directed of int  (** latency bound *)
  | Asap_sched

val synthesize_block :
  ?name:string ->
  ?scheduler:scheduler ->
  Codesign_ir.Cdfg.block ->
  Codesign_rtl.Fsmd.t * report
(** Defaults to [List_sched default_resources].
    @raise Invalid_argument for blocks with memory ops (estimation still
    works for those via {!estimate_block}). *)

val estimate_block : Codesign_ir.Cdfg.block -> report
(** Like {!synthesize_block} at its default scheduler, but without FSMD
    generation, so memory ops are allowed. *)

type behavior_estimate = {
  cycles : int;  (** trip-weighted invocation cycles over all blocks *)
  area : int;  (** shared-datapath area across blocks *)
  mix : (string * int) list;  (** trip-weighted op mix (for sharing) *)
  n_blocks : int;
}

val estimate : Codesign_ir.Behavior.proc -> behavior_estimate
(** Elaborates the behaviour and estimates a single-thread hardware
    implementation: blocks execute sequentially on a datapath sized to
    the worst block, each scheduled by [List_sched default_resources]. *)

val default_resources : (string * int) list
(** [alu 2, logic 2, mul 1, div 1, shift 1, cmp 1, mem 1]. *)
