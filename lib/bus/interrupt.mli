(** A prioritised interrupt controller.

    Devices raise numbered lines; the controller drives a single CPU
    request level (lowest line number = highest priority).  Software
    reads the pending mask and acknowledges lines through the
    controller's register window, which can be placed in a
    {!Memory_map} via {!region}.

    Register window (word offsets):
    - 0 [PENDING] (read-only): bit per pending line;
    - 1 [ACK] (write): clears the written bits;
    - 2 [MASK] (read/write): bit per enabled line (reset: all enabled);
    - 3 [CURRENT] (read-only): number of the highest-priority pending
      enabled line, or -1. *)

type t

val create : unit -> t
(** A controller with 8 lines, all enabled. *)

val raise_line : t -> int -> unit
(** Latch a line pending (edge semantics: stays pending until acked). *)

val ack : t -> int -> unit

val pending : t -> int
(** Bit mask of pending lines. *)

val on_change : t -> (bool -> unit) -> unit
(** Callback invoked with the new CPU level whenever it changes (used by
    co-simulation to poke the CPU model). *)

val region : name:string -> base:int -> t -> Memory_map.region
(** The 4-word register window described above. *)
