(** Execution profiling for the ISS — the analysis front-end of
    profile-driven HW/SW partitioning (the paper's §3.3 "performance
    requirements" factor; cf. COSYMA-style hot-spot extraction [17]).

    Attach a profiler to a CPU before running; it accumulates cycles per
    program counter and aggregates them by the labelled regions of the
    assembled image. *)

type t

val attach : Cpu.t -> Asm.image -> t
(** Installs a retirement callback on the CPU.  Only one profiler (or
    other retirement consumer) can be attached at a time. *)

val total_cycles : t -> int

val by_label : t -> (string * int) list
(** Cycles aggregated by covering label, sorted by descending cycles;
    instructions before the first label aggregate under ["<entry>"]. *)
