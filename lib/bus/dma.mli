(** A descriptor-driven DMA engine — the bulk-transfer path that lets a
    co-processor or device move data without CPU involvement.

    Register window (word offsets): 0 SRC, 1 DST, 2 LEN,
    3 CTRL (write 1 to start), 4 STATUS (1 = done, any write clears).

    The engine is a kernel process performing word-by-word transfers
    through a {!Transport.t} (a {!Transport.pin} or {!Transport.tlm}
    bus, typically), so it competes for the bus with the CPU exactly
    like real hardware; completion optionally raises an interrupt
    line. *)

type t

type start_status =
  | Started  (** engine was idle; the transfer begins immediately *)
  | Queued  (** engine busy; descriptor accepted into the job queue *)
  | Rejected of string
      (** descriptor refused (queue full, negative length); the string
          says why.  Typed rather than an exception so callers — and
          fault-injection campaigns — can branch on it. *)

val create :
  ?irq:Interrupt.t * int ->
  Codesign_sim.Kernel.t ->
  Transport.t ->
  unit ->
  t

val region : name:string -> base:int -> t -> Memory_map.region

val busy : t -> bool
val transfers_completed : t -> int
val words_moved : t -> int

val start : t -> src:int -> dst:int -> len:int -> start_status
(** Programmatic start (equivalent to writing the registers).  If the
    engine is busy the descriptor is queued (up to the queue depth of
    4); an over-full queue or a negative length yields [Rejected] —
    never an exception. *)
