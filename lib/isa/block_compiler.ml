(* Basic-block discovery and decoding for the block-compiled ISS tier.

   The same move {!Codesign_rtl.Logic_sim} makes for netlists, applied
   to the instruction stream: instead of re-matching the instruction
   variant (and re-reading the latency table) on every executed step,
   each basic block is decoded exactly once into a flat int-array
   micro-op program — one fixed-stride record per instruction — and
   cached keyed by its entry pc.  {!Cpu.run_blocks} then executes each
   block only whole, with a single cycles/instret update at block exit,
   and steps instead wherever a whole block cannot run (fuel left short
   of the block, interrupt entry, unsafe instruction).

   A block is a maximal straight-line run of {e pipeline-safe}
   instructions (Alu/Alui/Li/Lw/Sw/Nop) ending at the first
   control-flow instruction (B/J/Jal/Jr/Halt — executed as the block's
   terminator), at the first {e unsafe} instruction
   (In/Out/Custom/Ei/Di/Rti — environment hooks and interrupt-visible
   state, left to the precise {!Cpu.step} fallback), at the end of the
   code array, or at {!max_block_instrs}.  Lw/Sw stay in blocks: the
   block tier only runs CPUs whose memory-mapped-I/O hooks are the
   no-op defaults, so an access may trap but cannot otherwise perturb
   core state; a CPU with hooks runs on the {!Cpu.step} loop instead.

   Cache invalidation: there is none, by construction.  The program
   array belongs to the CPU and is never mutated after {!Cpu.create}
   (the ISA has no store-to-code path), so a decoded block can never go
   stale; a different program means a different CPU and a fresh cache.
   Blocks are keyed by entry pc only — a branch into the middle of an
   existing block simply decodes a new (overlapping) block starting at
   the target, which is correct because decoding has no side effects on
   the architectural state. *)

(* One fixed-stride record per decoded instruction:
   [op; x; y; z; lat; pc].  Operand meaning depends on [op] (see the
   executor in cpu.ml); [lat] is the precomputed base latency (the
   taken-branch +1 is added by the executor); [pc] is the instruction's
   own index — the trap location for its memory accesses, the halt pc,
   and the base of fall-through and link addresses. *)
let stride = 6

(* Micro-opcodes: a closed int enum, densest cases first. *)
let uop_alu = 0 (* + alu_index op: d=x, a=y, b=z *)
let uop_alui = 12 (* + alu_index op: d=x, a=y, imm=z *)
let uop_li = 24 (* d=x, imm=y *)
let uop_lw = 25 (* d=x, a=y, off=z *)
let uop_sw = 26 (* s=x, a=y, off=z *)
let uop_nop = 27
let uop_b = 28 (* + cond_index c: a=x, b=y, tgt=z *)
let uop_j = 32 (* tgt=x *)
let uop_jal = 33 (* d=x, tgt=y *)
let uop_jr = 34 (* r=x *)
let uop_halt = 35
let uop_end = 36 (* next pc = x (= the record's own pc field) *)

let alu_index = function
  | Isa.Add -> 0
  | Isa.Sub -> 1
  | Isa.Mul -> 2
  | Isa.Div -> 3
  | Isa.Rem -> 4
  | Isa.And -> 5
  | Isa.Or -> 6
  | Isa.Xor -> 7
  | Isa.Shl -> 8
  | Isa.Shr -> 9
  | Isa.Slt -> 10
  | Isa.Seq -> 11

let cond_index = function Isa.Eq -> 0 | Isa.Ne -> 1 | Isa.Lt -> 2 | Isa.Ge -> 3

let max_block_instrs = 64

type block = {
  uops : int array;
  n : int;  (** records in [uops] *)
  full_instrs : int;
      (** instructions retired by a complete, untrapped walk of the
          block ([n] minus the end record, if any) *)
  full_cycles : int;
      (** cycles of that complete walk, excluding the taken-branch
          penalty — the sum of the records' lat fields *)
}

type entry =
  | Unsafe
      (** the instruction at this pc needs the {!Cpu.step} fallback *)
  | Block of block

type cache = {
  code : Isa.program;
  entries : entry option array;  (** indexed by entry pc; lazily filled *)
  mutable compiled : int;  (** blocks decoded so far *)
}

let create code =
  {
    code;
    entries = Array.make (Array.length code) None;
    compiled = 0;
  }

let blocks_compiled c = c.compiled
let entries c = c.entries

let unsafe = function
  | Isa.In _ | Isa.Out _ | Isa.Custom _ | Isa.Ei | Isa.Di | Isa.Rti -> true
  | _ -> false

(* Register operands must be in range for the executor's unchecked
   register file accesses; an instruction naming a bogus register is
   left to [Cpu.step], which raises the same [Invalid_argument] a
   direct interpretation would. *)
let reg_ok r = r >= 0 && r < Isa.n_regs

let regs_ok = function
  | Isa.Alu (_, d, a, b) -> reg_ok d && reg_ok a && reg_ok b
  | Isa.Alui (_, d, a, _) -> reg_ok d && reg_ok a
  | Isa.Li (d, _) -> reg_ok d
  | Isa.Lw (d, a, _) -> reg_ok d && reg_ok a
  | Isa.Sw (s, a, _) -> reg_ok s && reg_ok a
  | Isa.B (_, a, b, _) -> reg_ok a && reg_ok b
  | Isa.Jal (d, _) -> reg_ok d
  | Isa.Jr r -> reg_ok r
  | Isa.J _ | Isa.Nop | Isa.Halt -> true
  | Isa.In _ | Isa.Out _ | Isa.Custom _ | Isa.Ei | Isa.Di | Isa.Rti -> true

let needs_step_fallback i = unsafe i || not (regs_ok i)

(* Whether the block scan stops at this pc with an end record. *)
let ends_block code pc count =
  count >= max_block_instrs || pc >= Array.length code
  || needs_step_fallback code.(pc)

(* Records of the block at [pc]: straight-line instructions, then a
   terminator or an end record. *)
let rec block_records code pc count =
  if ends_block code pc count then count + 1
  else
    match code.(pc) with
    | Isa.B _ | Isa.J _ | Isa.Jal _ | Isa.Jr _ | Isa.Halt -> count + 1
    | _ -> block_records code (pc + 1) (count + 1)

let compile_block c entry_pc =
  let code = c.code in
  (* Sized exactly: a worst-case buffer (390 words) would be allocated
     on the major heap for every block. *)
  let buf = Array.make (block_records code entry_pc 0 * stride) 0 in
  let n = ref 0 in
  let emit op x y z lat pc =
    let base = !n * stride in
    buf.(base) <- op;
    buf.(base + 1) <- x;
    buf.(base + 2) <- y;
    buf.(base + 3) <- z;
    buf.(base + 4) <- lat;
    buf.(base + 5) <- pc;
    incr n
  in
  let rec scan pc count =
    if ends_block code pc count then
      (* resumption point for the dispatcher: the next pc, in both the
         operand and the pc slot *)
      emit uop_end pc 0 0 0 pc
    else begin
      let i = code.(pc) in
      let lat = Isa.default_latency i in
      match i with
      | Isa.Alu (op, d, a, b) ->
          emit (uop_alu + alu_index op) d a b lat pc;
          scan (pc + 1) (count + 1)
      | Isa.Alui (op, d, a, imm) ->
          emit (uop_alui + alu_index op) d a imm lat pc;
          scan (pc + 1) (count + 1)
      | Isa.Li (d, imm) ->
          emit uop_li d imm 0 lat pc;
          scan (pc + 1) (count + 1)
      | Isa.Lw (d, a, off) ->
          emit uop_lw d a off lat pc;
          scan (pc + 1) (count + 1)
      | Isa.Sw (s, a, off) ->
          emit uop_sw s a off lat pc;
          scan (pc + 1) (count + 1)
      | Isa.Nop ->
          emit uop_nop 0 0 0 lat pc;
          scan (pc + 1) (count + 1)
      | Isa.B (cond, a, b, tgt) -> emit (uop_b + cond_index cond) a b tgt lat pc
      | Isa.J tgt -> emit uop_j tgt 0 0 lat pc
      | Isa.Jal (d, tgt) -> emit uop_jal d tgt 0 lat pc
      | Isa.Jr r -> emit uop_jr r 0 0 lat pc
      | Isa.Halt -> emit uop_halt 0 0 0 lat pc
      | Isa.In _ | Isa.Out _ | Isa.Custom _ | Isa.Ei | Isa.Di | Isa.Rti ->
          assert false (* [unsafe] cut the block above *)
    end
  in
  scan entry_pc 0;
  assert (!n * stride = Array.length buf);
  let full_instrs = ref 0 and full_cycles = ref 0 in
  for i = 0 to !n - 1 do
    if buf.(i * stride) <> uop_end then incr full_instrs;
    full_cycles := !full_cycles + buf.((i * stride) + 4)
  done;
  {
    uops = buf;
    n = !n;
    full_instrs = !full_instrs;
    full_cycles = !full_cycles;
  }

let get c ~pc =
  match c.entries.(pc) with
  | Some e -> e
  | None ->
      let e =
        if needs_step_fallback c.code.(pc) then Unsafe
        else begin
          c.compiled <- c.compiled + 1;
          Block (compile_block c pc)
        end
      in
      c.entries.(pc) <- Some e;
      e
