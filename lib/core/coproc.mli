(** Custom co-processor synthesis (paper §4.5) and its multi-threaded
    generalisation (§4.6, the authors' own multiple-process behavioural
    synthesis [10]).

    Input: a process network whose [Hw]-mapped processes form the
    co-processor.  {!synthesize} clusters those processes onto a bounded
    number of hardware {i threads} (controller/datapath pairs — the
    "ctrl + datapath" boxes of the paper's Fig. 9): processes sharing a
    thread serialise; separate threads run concurrently.  Assignment is
    longest-processing-time-first load balancing, optionally
    {b communication-aware}: colocating heavily-communicating processes
    avoids the cross-thread transfer cost (the [10] objective of
    maximising concurrency while minimising communication).

    The returned latency is {i measured} by executing the network on the
    co-simulation kernel ({!Cosim.run_network}) with the chosen engine
    assignment — not estimated. *)

type design = {
  threads : int;  (** hardware threads provisioned *)
  assignment : (string * int) list;  (** hw process -> thread id *)
  latency : int;  (** measured completion time *)
  hw_area : int;  (** summed HLS area of hardware processes *)
  crossing_channels : int;
      (** channels whose endpoints ended up on different threads (or on
          the SW/HW boundary) *)
  comm_aware : bool;
  checksum : int;  (** sum of observed output-port writes *)
}

val synthesize :
  ?threads:int ->
  ?comm_aware:bool ->
  ?cross_cost:int ->
  Codesign_ir.Process_network.t ->
  design
(** Defaults: 2 threads, comm-aware on, 24 cycles per crossing message,
    8 expected messages per channel (the static estimate used during
    assignment; execution charges the real per-message cost).
    @raise Invalid_argument if the network has no hardware processes or
    [threads < 1]. *)

val sweep_threads :
  max_threads:int -> Codesign_ir.Process_network.t -> design list
(** One design per thread count 1..max_threads (the Fig. 9 speedup
    curve), each at {!synthesize}'s defaults otherwise. *)
