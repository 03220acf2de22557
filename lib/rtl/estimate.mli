(** Hardware area/delay estimation, including the incremental,
    sharing-aware estimator of Vahid & Gajski (paper ref [18]).

    Units: area in NAND-equivalent gates for 32-bit functional units;
    delay in clock cycles.

    The key idea of [18]: during HW/SW partitioning the hardware cost of
    moving a function into hardware is {i not} its standalone cost —
    functional units already allocated for other hardware-resident
    functions can be reused.  {!Incremental} maintains the running
    allocation so each query is O(op kinds), cheap enough to sit inside a
    partitioning inner loop.  The per-kind requirement of a function is
    [ceil (count / 4)]: a unit is time-multiplexed 4 times per
    invocation.  Both estimators add a fixed 64 per task for its
    controller and wiring. *)

val hw_op_delay : Codesign_ir.Cdfg.opcode -> int
(** Hardware latency in cycles of an operation on its unit (mul 2,
    div/rem 8, memory 2, everything else 1) — the delay model handed to
    HLS. *)

val fu_need : (string * int) list -> (string * int) list
(** Per-kind FU requirement of an operation mix, sorted by kind. *)

val standalone_area : (string * int) list -> int
(** Area of a dedicated, unshared implementation of one function. *)

(** The incremental sharing-aware estimator. *)
module Incremental : sig
  type t

  val create : unit -> t

  val incremental_cost : t -> (string * int) list -> int
  (** Area that adding a function with this op mix would add, given the
      current allocation — without committing. *)

  val add : t -> id:int -> (string * int) list -> int
  (** Commit a function (keyed by caller id) and return its incremental
      cost.  @raise Invalid_argument on duplicate id. *)

  val remove : t -> id:int -> unit
  (** Remove a function and shrink the allocation to the remaining
      functions' worst-case needs.  @raise Invalid_argument on unknown
      id. *)

  val mem : t -> id:int -> bool

  val total_area : t -> int
  (** Allocated FU area plus per-resident-task overheads. *)

  val allocation : t -> (string * int) list
  (** Current per-kind FU allocation, sorted. *)

  val resident : t -> int list
  (** Ids of committed functions, ascending. *)
end
