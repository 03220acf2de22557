(** The interpreted gate-list evaluator that {!Codesign_rtl.Logic_sim}
    replaced with a compiled program, kept as a differential reference:
    the equivalence property tests run random netlists through both
    evaluators, and the [logic_sim] microbenchmarks quote compiled
    against interpreted throughput.  Same two-phase semantics as
    {!Codesign_rtl.Logic_sim}. *)

type t

val create : Codesign_rtl.Netlist.t -> t
(** @raise Invalid_argument if the combinational part is cyclic. *)

val set_input : t -> string -> int -> unit
(** @raise Not_found on an unknown input name. *)

val eval : t -> unit
val output : t -> string -> int
val clock_cycle : t -> unit
val cycles_run : t -> int

val run_vectors :
  t -> inputs:string list -> int list list -> (string * int list) list
(** Resets first, like {!Codesign_rtl.Logic_sim.run_vectors}. *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit
