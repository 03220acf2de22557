(** Value-change-dump (VCD) recording of {!Signal} activity.

    The standard waveform interchange format, so pin-level co-simulations
    can be inspected with ordinary EDA wave viewers.  A recorder watches
    any number of integer signals; every value change is timestamped
    with kernel time.  Watchers are daemon processes (see
    {!Kernel.spawn}), so a simulation that ends with only watchers
    blocked is quiescent — a {!Kernel.Drain} run needs no [Quiesce].

    Typical use:

    {[
      let vcd = Vcd.create kernel in
      Vcd.watch vcd ~width:20 (Bus.Pin.addr_wire bus);
      Vcd.watch vcd ~width:1 (Bus.Pin.req_wire bus);
      ... run ...
      print_string (Vcd.dump vcd)
    ]} *)

type t

val create : ?timescale:string -> Kernel.t -> t
(** [timescale] defaults to ["1ns"]. *)

val watch : t -> ?width:int -> int Signal.t -> unit
(** Record every (waking) change of the signal under its {!Signal.name}.
    [width] (default 32) is the declared bit width.  The initial value
    is recorded at the watch time. *)

val changes : t -> (int * string * int) list
(** Raw records: (time, signal name, new value), in occurrence order. *)

val dump : t -> string
(** Render the VCD document ([$date]-free, so output is deterministic).
    Each signal's value at watch time appears in an initial
    [$dumpvars ... $end] section; subsequent changes follow under
    [#time] markers.  Vector values wider than the declared width are
    masked to it. *)
