(** The cycle-counting instruction-set simulator (ISS).

    Executes an assembled {!Isa.program} over a word-addressed data
    memory, counting cycles from {!Isa.default_latency}.  The CPU is
    simulation-framework-agnostic: it never touches the event kernel
    itself.  Co-simulation drives it by calling {!step} from a kernel
    process and advancing simulated time by the cycles each step reports;
    port-I/O hooks may themselves blockon channels or bus transactions,
    which suspends the whole CPU — exactly the behaviour of a core
    stalled on a bus.

    Interrupts: a level-sensitive request line ({!set_irq}).  When
    enabled ([Ei]) and the line is high, the CPU saves PC and jumps to
    the vector (instruction index 1 by convention, settable); [Rti]
    restores the saved PC and re-enables interrupts. *)

type status =
  | Running
  | Halted
  | Trapped of string
      (** PC or memory access out of range, or fuel exhausted *)

(** Hooks connecting the core to its environment. *)
type env = {
  port_in : int -> int;  (** [In] instruction *)
  port_out : int -> int -> unit;  (** [Out] instruction *)
  custom : int -> int -> int -> int -> int;
      (** [Custom (ext, rd, a, b)]: called as [custom ext old_rd rs1 rs2];
          the old destination value enables accumulator-style
          (read-modify-write) extension instructions *)
  custom_latency : int -> int;  (** per-extension-opcode cycles *)
  mem_read : int -> int option;
      (** memory-mapped I/O intercept for [Lw]: [Some v] claims the
          address (e.g. a bus transaction), [None] falls through to
          internal memory *)
  mem_write : int -> int -> bool;
      (** memory-mapped I/O intercept for [Sw]: [true] claims the
          address *)
}

val default_env : env
(** Ports read 0 / discard, custom opcodes return 0 in 1 cycle, no
    memory-mapped I/O. *)

type t

val create : ?mem_words:int -> ?env:env -> Isa.program -> t
(** [mem_words] is the size of the data address space, default 65536:
    addresses [0 .. mem_words - 1] are valid, every other one traps.
    Memory is allocated on first write, not here: it starts empty and
    grows geometrically (capped at [mem_words]) when a store lands past
    the allocated prefix, and a word never written reads 0.  A CPU thus
    costs what its program touches, not the whole address space.
    Each instruction costs {!Isa.default_latency} cycles.  An accepted
    interrupt jumps to instruction 1.
    @raise Invalid_argument if [mem_words] is negative or larger than
    [Sys.max_array_length]. *)

val reset : t -> unit
(** Clears registers, PC, cycle count, interrupt state (including a
    latched request line) and any {!on_retire} callback; memory is
    preserved.  A reset CPU takes no interrupt until {!set_irq} drives
    the line again. *)

val status : t -> status
val cycles : t -> int
val pc : t -> int
val instret : t -> int
(** Instructions retired. *)

val reg : t -> int -> int
val set_reg : t -> int -> int -> unit

val read_mem : t -> int -> int
(** The word at an address; a valid address never written reads 0 and
    allocates nothing.  Out-of-range addresses trap the CPU (status
    becomes [Trapped]) and read as 0 — an anomaly is data for the
    supervisor, not a host exception. *)

val write_mem : t -> int -> int -> unit
(** Out-of-range addresses trap the CPU; the write is discarded.  A
    write past the allocated prefix grows it, whatever the value. *)

val first_mem_difference : t -> t -> (int * int * int) option
(** [Some (addr, va, vb)] for the lowest address at which the two data
    memories differ, with [a]'s and [b]'s words there, or [None].  One
    pass over the longer of the two allocated prefixes, words past a
    prefix counting as 0: the answer of a {!read_mem} scan of every
    address, without its cost. *)

val trap : t -> string -> unit
(** Force [Trapped reason] from outside the core — the hook fault
    injectors and supervisors use to model spurious traps. *)

val set_irq : t -> bool -> unit
(** Drive the interrupt request line. *)

val step : t -> int
(** Execute one instruction (or take a pending interrupt).  Returns the
    cycles the step consumed (0 when already halted/trapped).  Status
    may change as a side effect. *)

val run : ?fuel:int -> t -> status
(** Step until [Halted] or [Trapped]; [fuel] bounds the step count
    (default 50 million) and exhaustion traps.  Semantically identical
    to calling {!step} in a loop.

    {b Fuel contract} (shared with {!run_blocks} and {!run_compiled}):
    one fuel step is one retired instruction, {e or} one interrupt
    entry, {e or} one trapping memory access — every call to {!step}
    that did work.  {!instret} counts
    only retired instructions, so after an IRQ-heavy run
    [steps > instret] by exactly the number of interrupt entries (plus
    one if the run ended in a trap). *)

val run_blocks : t -> fuel:int -> int
(** The block-compiled tier: execute up to [fuel] steps (per the fuel
    contract of {!run}), stopping early on [Halted]/[Trapped], and
    return the steps executed.  Unlike {!run} it does not turn fuel
    exhaustion into a trap, so slicing callers (budget supervisors,
    co-simulation quanta) can interleave bounded bursts with their own
    checks.  Observably identical to a {!step} loop of the same fuel,
    typically several times faster.

    Basic blocks are decoded once (lazily, via {!Block_compiler}) into
    flat micro-op records and executed whole per dispatch, with
    cycles/instret updated once at block exit.  A block runs only
    whole: when the fuel left ends inside it, the rest of the call is
    stepped.  Interrupts are polled at block boundaries (no instruction
    inside a block can raise the request line or change the enable),
    so interrupt entry points and trap locations are identical to the
    step loop.  Instructions with environment-visible or
    interrupt-visible work ([In]/[Out]/[Custom]/[Ei]/[Di]/[Rti]),
    interrupt entries and out-of-range pcs go through {!step}.  A CPU
    with memory-mapped I/O hooks ([env.mem_read]/[env.mem_write]) or an
    {!on_retire} callback runs the whole call on the step loop: a hook
    may trap the core or raise the request line at any access, and
    per-instruction attribution must observe an up-to-date cycle
    counter.  The decoded-block cache lives on the CPU, is built on
    first dispatch, survives {!reset} and is never invalidated (the
    program is immutable). *)

val run_burst : t -> cycles:int -> unit
(** Run whole decoded blocks on the block tier, one at a time, while
    each block's worst case — its cycles plus a taken-branch penalty —
    fits in what is left of a budget of [cycles] for this call.  It
    stops, leaving the rest to {!step}, at the first block that would
    not fit, at an instruction the block tier steps (In/Out/Custom/Ei/
    Di/Rti, or an out-of-range pc), at a pending interrupt, or when the
    CPU halts or traps; a CPU with memory hooks or an {!on_retire}
    callback runs nothing.  Each instruction it retires costs at least
    one cycle, so a [step] loop over the same instructions would have
    reported exactly [instret]'s increase in nonzero step cycles,
    summing to [cycles]' increase — what a co-simulation at quantum 1
    turns into kernel waits ({!Codesign_sim.Kernel.count_waits}). *)

val run_compiled : ?fuel:int -> t -> status
(** {!run} on the block-compiled tier: step until [Halted]/[Trapped]
    via {!run_blocks}; fuel exhaustion traps. *)

val blocks_compiled : t -> int
(** Distinct basic blocks decoded so far by the block tier (0 if
    {!run_blocks} has not run). *)

val on_retire : t -> (pc:int -> cycles:int -> unit) -> unit
(** Install a retirement callback (used by the profiler): called after
    every completed instruction with its PC and cycle cost. *)

(** {2 Snapshot / restore}

    A snapshot deep-copies the complete architectural state: registers,
    data memory, PC, cycle/instret counters, status and interrupt state
    (request line, enable, in-ISR flag, saved EPC).  Of data memory it
    copies only the allocated prefix (see {!create}), so a snapshot of
    a CPU that touched little memory is small.  It does {e not}
    capture the program (immutable and shared), the environment hooks
    or an installed {!on_retire} callback — those
    belong to the harness around the core, not to the core's state, and
    a fork that needs different hooks installs its own. *)

type snap

val snapshot : t -> snap

val restore : t -> snap -> unit
(** Rewind architectural state to [snap].  Words written past the
    snapshot's memory prefix since it was taken read 0 again.
    @raise Invalid_argument if the snapshot came from a CPU with a
    different [mem_words]. *)
