(** The host instruction set — a small 32-register RISC machine.

    This plays the role of the "microprocessor type and netlist of gates"
    of the paper's Type I systems and of the instruction-set processor in
    its Type II systems.  The set is deliberately conventional (ALU,
    load/store, branches, port I/O) with one co-design hook: a bank of
    {!Custom} opcodes whose semantics and latency are supplied at
    simulation time — the extension point exploited by the ASIP and
    special-purpose-functional-unit experiments (§4.3/§4.4).

    Instructions are polymorphic in their branch-target type: assembly
    uses [string Isa.instr] (symbolic labels), executable programs use
    [int Isa.instr] (absolute instruction indices).

    Register conventions: [r0] reads as zero (writes ignored); all other
    registers are general purpose.  The code generator uses r1-r7 for
    variable staging and r8-r27 as its expression stack. *)

type aluop =
  | Add
  | Sub
  | Mul
  | Div  (** division by zero yields 0 *)
  | Rem  (** remainder by zero yields 0 *)
  | And
  | Or
  | Xor
  | Shl  (** shift amount taken mod 32 *)
  | Shr  (** arithmetic right shift, amount mod 32 *)
  | Slt  (** set if less than (signed), 0/1 *)
  | Seq  (** set if equal, 0/1 *)

type cond =
  | Eq
  | Ne
  | Lt  (** signed *)
  | Ge  (** signed *)

type 'lbl instr =
  | Alu of aluop * int * int * int  (** [Alu (op, rd, rs1, rs2)] *)
  | Alui of aluop * int * int * int  (** [Alui (op, rd, rs1, imm)] *)
  | Li of int * int  (** [Li (rd, imm)] *)
  | Lw of int * int * int  (** [Lw (rd, rs, off)]: rd <- mem.(rs+off) *)
  | Sw of int * int * int  (** [Sw (rs2, rs1, off)]: mem.(rs1+off) <- rs2 *)
  | B of cond * int * int * 'lbl  (** branch if cond(rs1, rs2) *)
  | J of 'lbl
  | Jal of int * 'lbl  (** rd <- return index; jump *)
  | Jr of int
  | In of int * int  (** [In (rd, port)] *)
  | Out of int * int  (** [Out (port, rs)] *)
  | Custom of int * int * int * int
      (** [Custom (ext, rd, rs1, rs2)] — application-specific opcode *)
  | Ei  (** enable interrupts *)
  | Di  (** disable interrupts *)
  | Rti  (** return from interrupt *)
  | Nop
  | Halt

type program = int instr array
(** An executable image: branch targets are instruction indices. *)

val n_regs : int
(** 32. *)

val instr_bytes : int
(** Encoded size of one instruction (4), for code-size metrics. *)

val code_bytes : program -> int

(** Default latency model, in cycles: ALU/branch/jump/moves 1, [Mul] 3,
    [Div]/[Rem] 8, memory 2, port I/O 1 (plus whatever the attached
    device model adds), [Custom] 1 unless overridden in the CPU. *)
val default_latency : 'a instr -> int

val map_target : ('a -> 'b) -> 'a instr -> 'b instr
(** Rewrites branch targets (used by the assembler). *)

val pp : target:('lbl -> string) -> Format.formatter -> 'lbl instr -> unit
(** Full textual form, e.g. [add r3, r1, r2]. *)

val validate : 'a instr -> unit
(** Checks register indices are in range.
    @raise Invalid_argument otherwise. *)
