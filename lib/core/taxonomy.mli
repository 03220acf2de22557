(** The paper's classification framework for mixed hardware/software
    systems — its primary intellectual contribution, made executable.

    Section 2 distinguishes systems by the {i kind of boundary} between
    hardware and software; Section 3 by the {i design activities} a
    methodology integrates; Section 3.1 by the {i abstraction level} at
    which HW/SW interaction is modelled; Section 3.3 by the {i factors}
    a partitioner weighs.  Section 5 condenses these into four
    comparison criteria.  This module defines all four axes, an
    automatic classifier over structural system descriptions, and the
    catalogue of methodologies implemented in this repository (one per
    example class of §4), each tagged the way the paper tags it. *)

(** §2: the HW/SW boundary. *)
type boundary =
  | Type_I
      (** logical boundary: the software executes {i on} the hardware;
          the two live at different abstraction levels *)
  | Type_II
      (** physical boundary: HW and SW are peer components modelled at
          the same abstraction level *)
  | Mixed_boundary
      (** both kinds present ("conceivable, but no published work
          addresses it" — §2) *)

(** §3 / Fig. 2: design activities a methodology integrates. *)
type activity = Co_simulation | Co_synthesis | Hw_sw_partitioning

(** §3.1 / Fig. 3: abstraction level of modelled HW/SW interaction. *)
type cosim_level =
  | Pin_level  (** CPU pins / bus wires [4] *)
  | Bus_transaction  (** register reads/writes, bus transactions *)
  | Driver_call  (** device-driver entry points *)
  | Os_message  (** send / receive / wait [2][3] *)

(** §3.3: factors that can drive a partitioning decision. *)
type factor =
  | Performance
  | Implementation_cost
  | Modifiability
  | Nature_of_computation
  | Concurrency
  | Communication

(** Structural description of a system, for {!classify}. *)

type abstraction = Gate_netlist | Register_transfer | Behavioral | Program

type component = {
  comp_name : string;
  is_software : bool;
  level : abstraction;
  executes_on : string option;
      (** name of the component this one runs on, if any *)
}

val classify : component list -> boundary
(** The §2 rule: for every SW component, if it [executes_on] a HW
    component (or sits at a strictly higher abstraction level than some
    HW component it interacts with), the boundary it forms is logical
    (Type I); if SW and HW components are peers at the same abstraction
    level, the boundary is physical (Type II).  A system exhibiting both
    classifies as {!Mixed_boundary}.
    @raise Invalid_argument on an empty list, no SW, or no HW. *)

(** A methodology, characterised by the paper's four §5 criteria. *)
type methodology = {
  m_name : string;
  system_class : string;  (** which §4 example family it belongs to *)
  section : string;  (** paper section *)
  m_boundary : boundary;
  activities : activity list;
  cosim_levels : cosim_level list;  (** empty if co-simulation absent *)
  factors : factor list;  (** empty if partitioning absent *)
  implemented_by : string;  (** module(s) in this repository *)
}

val catalogue : methodology list
(** Every methodology implemented in this repository, tagged per the
    paper's own discussion (EXP-1/EXP-2/EXP-10 print this table and
    cross-check it against the live modules). *)

val boundary_name : boundary -> string

val criteria : methodology -> (string * string) list
(** The §5 criteria rendered as (criterion, value) rows. *)
