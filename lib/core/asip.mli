(** Application-specific instruction-set processor (ASIP) synthesis —
    the paper's §4.3 (PEAS-I [14]) — and its §4.4 variant with
    field-programmable special-purpose functional units
    (Athanas-Silverman instruction-set metamorphosis [15]).

    The flow is end-to-end and verified, not merely estimated:

    + {b mine}: enumerate occurrences of extension-instruction patterns
      (multiply-accumulate, multiply-subtract, 3-input add, shift-add,
      multiply-shift) in the application's behaviour, weighted by loop
      trip counts;
    + {b select}: 0/1 knapsack over patterns (value = estimated cycles
      saved, weight = functional-unit area) under the area budget —
      the §3.3 performance-vs-implementation-cost trade-off;
    + {b rewrite}: replace matched sub-expressions with
      {!Codesign_ir.Behavior.Ext} nodes (bottom-up, so chained
      accumulations fuse);
    + {b verify}: compile both versions to the ISS — the rewritten one
      executes real [Custom] instructions with the pattern's semantics
      and latency — check the outputs are identical and measure the true
      cycle counts.

    {!Reconfig} compares a {i static} FU configuration (one pattern set
    for a whole multi-application workload) against {i dynamic}
    reconfiguration (best per-application set, paying a reconfiguration
    latency at each switch). *)

type pattern = {
  pid : int;  (** extension opcode (the [Custom] index) *)
  pname : string;
  semantics : int -> int -> int -> int;  (** acc -> a -> b -> result *)
  area : int;  (** functional-unit area, NAND-equivalents *)
  latency : int;  (** cycles of the custom instruction *)
  sw_cycles : int;  (** cycles of the instruction sequence it replaces *)
}

val patterns : pattern list
(** The built-in candidate set: mac, msub, add3, shladd, mulshr, plus
    the bit-twiddling family crcstep ([x>>1 ^ (a&b)]), negand
    ([-(a&b)]) and andxor ([x ^ (a&b)]) that CRC-like kernels lean
    on. *)

val occurrences :
  Codesign_ir.Behavior.proc -> (pattern * int) list
(** Trip-weighted greedy non-overlapping match counts per pattern
    (patterns with zero occurrences are omitted). *)

val rewrite :
  Codesign_ir.Behavior.proc -> pattern list -> Codesign_ir.Behavior.proc
(** Bottom-up replacement of matches of the given patterns with [Ext]
    nodes. *)

val select :
  budget:int -> (pattern * int) list -> pattern list
(** Knapsack selection maximising estimated savings
    [occurrences * (sw_cycles - latency)] under the area budget.
    @raise Invalid_argument on a negative budget. *)

val ext_evaluator : pattern list -> int -> int -> int -> int -> int
(** Combined semantics dispatcher for {!Codesign_ir.Behavior.run}'s
    [ext] and the ISS [custom] hook.  @raise Invalid_argument on an
    unselected opcode. *)

type report = {
  selected : pattern list;
  occurrence_counts : (string * int) list;
  fu_area : int;  (** area of the selected extension units *)
  base_cycles : int;  (** measured, baseline ISS *)
  asip_cycles : int;  (** measured, extended ISS *)
  speedup : float;
  verified : bool;  (** outputs of both runs identical *)
}

val design :
  ?budget:int ->
  Codesign_ir.Behavior.proc ->
  (string * int) list ->
  report
(** Full flow on one application with its input bindings.
    [budget] defaults to 800 area units.
    @raise Failure if either compiled run traps. *)

(** §4.4: time-multiplexed reconfigurable functional units. *)
module Reconfig : sig
  type outcome = {
    static_cycles : int;
        (** whole workload under the single best static pattern set *)
    dynamic_cycles : int;
        (** per-app best sets, including reconfiguration time *)
    reconfigurations : int;
    static_set : string list;
    winner : string;  (** ["static"] or ["dynamic"] *)
  }

  val compare :
    ?capacity:int ->
    ?reconfig_cost:int ->
    (Codesign_ir.Behavior.proc * (string * int) list) list ->
    outcome
  (** [capacity] (default 800) bounds the resident FU area;
      [reconfig_cost] (default 2000 cycles) is charged whenever the
      resident set changes between consecutive applications. *)
end
