(** Static structure of a network of communicating processes.

    This is the specification form for Type II systems modelled at the
    [send]/[receive]/[wait] abstraction level (paper Fig. 3, ref [3]):
    each process is a {!Behavior.proc}, channels are typed point-to-point
    FIFOs, and a {i mapping} assigns each process to a software or
    hardware implementation.  Execution semantics live in
    {!Codesign.Cosim}; this module only owns the structure and its
    static sanity checks. *)

type mapping =
  | Sw  (** runs on the instruction-set processor *)
  | Hw  (** synthesised to a dedicated hardware thread *)

type channel = {
  cname : string;
  src : string;  (** producing process name *)
  dst : string;  (** consuming process name *)
  depth : int;  (** FIFO depth; 0 = rendezvous *)
  latency : int;
      (** delivery latency in cycles; 0 = immediate (blocking FIFO or
          rendezvous).  A [latency > 0] channel is a delay line
          ({!Codesign_sim.Channel}) and doubles as the lookahead that
          lets the channel cross a partition boundary in a partitioned
          co-simulation run. *)
}

type t = {
  name : string;
  procs : (Behavior.proc * mapping) list;
  channels : channel list;
}

val make :
  ?name:string -> (Behavior.proc * mapping) list -> channel list -> t
(** Validates: process names unique; channel names unique; channel
    endpoints name existing processes and differ; depth and latency
    non-negative; every channel a process sends on / receives from in
    its behaviour is declared with that process as the matching
    endpoint.  @raise Invalid_argument otherwise. *)

val find_proc : t -> string -> Behavior.proc * mapping
(** @raise Invalid_argument on unknown name, listing the processes the
    network does declare. *)

val remap : t -> (string * mapping) list -> t
(** Functional update of process mappings; unknown names are ignored. *)

val hw_procs : t -> Behavior.proc list
