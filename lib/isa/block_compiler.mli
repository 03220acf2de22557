(** Basic-block discovery and decoding for the block-compiled ISS tier.

    Decodes each basic block of an {!Isa.program} exactly once into a
    flat int-array micro-op program (the fixed-stride record idiom
    {!Codesign_rtl.Logic_sim} uses for netlists) and caches it keyed by
    entry pc.  {!Cpu.run_blocks} executes each block only whole, and
    only for CPUs without memory-mapped-I/O hooks.

    The cache is never invalidated: a program array is immutable after
    {!Cpu.create} (the ISA has no store-to-code path), so decoded
    blocks cannot go stale.  A branch into the middle of an existing
    block decodes a fresh overlapping block at the target pc — decoding
    has no architectural side effects, so overlap is harmless. *)

(** {1 Micro-opcodes}

    A closed int enum.  [uop_alu]/[uop_alui]/[uop_b] are base values to
    which the operator index is added. *)

val uop_alui : int
(** +alu index; x=dest, y=src a, z=immediate *)

val uop_li : int
(** x=dest, y=immediate *)

val uop_lw : int
(** x=dest, y=addr reg, z=offset *)

val uop_sw : int
(** x=src reg, y=addr reg, z=offset *)

val uop_nop : int

val uop_b : int
(** +cond index (Eq=0, Ne=1, Lt=2, Ge=3); x=a, y=b, z=target pc *)

val uop_j : int
(** x=target pc *)

val uop_jal : int
(** x=link dest, y=target pc *)

val uop_jr : int
(** x=register holding target pc *)

val uop_halt : int

type block = {
  uops : int array;  (** [n * stride] ints, records back to back *)
  n : int;  (** number of records *)
  full_instrs : int;
      (** instructions a complete untrapped walk of the block retires
          ([n] minus the end record, if any) — the executor's
          instret/fuel charge *)
  full_cycles : int;
      (** cycles of that complete walk excluding the taken-branch +1
          (the sum of the records' lat fields) *)
}

type entry =
  | Unsafe
      (** the instruction at this pc (In/Out/Custom/Ei/Di/Rti, or one
          naming an out-of-range register) needs the precise
          {!Cpu.step} fallback *)
  | Block of block

type cache

val create : Isa.program -> cache
(** Empty cache for [code]; nothing is decoded until {!get}.  Blocks
    charge {!Isa.default_latency}, as {!Cpu.step} does. *)

val get : cache -> pc:int -> entry
(** Entry for the block starting at [pc], decoding and caching it on
    first request.  [pc] must be in range for the program. *)

val entries : cache -> entry option array
(** The lazily-filled per-pc entry table itself (length = program
    length; [None] = not yet decoded — call {!get}).  Exposed so the
    dispatcher's hit path is a plain array load instead of a call. *)

val blocks_compiled : cache -> int
(** Number of distinct blocks decoded so far (Unsafe entries not
    counted). *)
