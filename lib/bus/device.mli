(** Peripheral device models for the embedded-system experiments
    (paper §4.1, Fig. 4): the "surrounding hardware" an embedded
    microprocessor's software must drive.

    Each device exposes a register window ({!Memory_map.region}) and,
    where it has autonomous behaviour, runs a process on the simulation
    kernel.  The stream source optionally raises a line on an
    {!Interrupt} controller, so its consumer can be driven in polled or
    interrupt mode — the design choice interface synthesis explores.
    Software observes every device through its registers only. *)

(** A data source (sensor/receiver): produces one word every [period]
    cycles from [gen] into an internal FIFO.
    Registers: 0 STATUS (words available), 1 DATA (pop; 0 when empty),
    2 OVERRUNS (r/o).
    Raises its interrupt line (if any) when the FIFO becomes non-empty. *)
module Stream_src : sig
  type t

  val create :
    ?irq:Interrupt.t * int ->
    ?depth:int ->
    period:int ->
    count:int ->
    gen:(int -> int) ->
    Codesign_sim.Kernel.t ->
    unit ->
    t
  (** Produces [gen 0 .. gen (count-1)], one every [period] cycles
      starting at [period]; FIFO [depth] defaults to 4; overflowing
      drops the word and counts an overrun. *)

  val region : name:string -> base:int -> t -> Memory_map.region
end

(** A data sink (transmitter/actuator): accepts one word, then is busy
    for [period] cycles.  Registers: 0 STATUS (1 = ready), 1 DATA
    (write to emit).  Writing while busy is accepted functionally but
    incurs the remaining busy time as bus wait states — the timing
    hazard that only pin-level co-simulation sees.  Software polls its
    status register; it raises no interrupt. *)
module Stream_sink : sig
  type t

  val create : period:int -> Codesign_sim.Kernel.t -> unit -> t

  val region : name:string -> base:int -> t -> Memory_map.region

  val accepted : t -> int list
  (** Words emitted so far, oldest first. *)

end
