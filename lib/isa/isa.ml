type aluop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Slt
  | Seq

type cond = Eq | Ne | Lt | Ge

type 'lbl instr =
  | Alu of aluop * int * int * int
  | Alui of aluop * int * int * int
  | Li of int * int
  | Lw of int * int * int
  | Sw of int * int * int
  | B of cond * int * int * 'lbl
  | J of 'lbl
  | Jal of int * 'lbl
  | Jr of int
  | In of int * int
  | Out of int * int
  | Custom of int * int * int * int
  | Ei
  | Di
  | Rti
  | Nop
  | Halt

type program = int instr array

let n_regs = 32
let instr_bytes = 4
let code_bytes p = Array.length p * instr_bytes

let default_latency = function
  | Alu (Mul, _, _, _) | Alui (Mul, _, _, _) -> 3
  | Alu ((Div | Rem), _, _, _) | Alui ((Div | Rem), _, _, _) -> 8
  | Alu _ | Alui _ | Li _ -> 1
  | Lw _ | Sw _ -> 2
  | B _ | J _ | Jal _ | Jr _ -> 1
  | In _ | Out _ -> 1
  | Custom _ -> 1
  | Ei | Di | Rti -> 1
  | Nop | Halt -> 1

let map_target f = function
  | B (c, a, b, l) -> B (c, a, b, f l)
  | J l -> J (f l)
  | Jal (r, l) -> Jal (r, f l)
  | Alu (o, a, b, c) -> Alu (o, a, b, c)
  | Alui (o, a, b, i) -> Alui (o, a, b, i)
  | Li (r, i) -> Li (r, i)
  | Lw (a, b, o) -> Lw (a, b, o)
  | Sw (a, b, o) -> Sw (a, b, o)
  | Jr r -> Jr r
  | In (r, p) -> In (r, p)
  | Out (p, r) -> Out (p, r)
  | Custom (e, a, b, c) -> Custom (e, a, b, c)
  | Ei -> Ei
  | Di -> Di
  | Rti -> Rti
  | Nop -> Nop
  | Halt -> Halt

let aluop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Slt -> "slt"
  | Seq -> "seq"

let cond_name = function Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Ge -> "ge"

let pp ~target fmt i =
  let f = Format.fprintf in
  match i with
  | Alu (op, d, a, b) -> f fmt "%s r%d, r%d, r%d" (aluop_name op) d a b
  | Alui (op, d, a, imm) -> f fmt "%si r%d, r%d, %d" (aluop_name op) d a imm
  | Li (d, imm) -> f fmt "li r%d, %d" d imm
  | Lw (d, a, off) -> f fmt "lw r%d, %d(r%d)" d off a
  | Sw (s, a, off) -> f fmt "sw r%d, %d(r%d)" s off a
  | B (c, a, b, l) -> f fmt "b.%s r%d, r%d, %s" (cond_name c) a b (target l)
  | J l -> f fmt "j %s" (target l)
  | Jal (d, l) -> f fmt "jal r%d, %s" d (target l)
  | Jr r -> f fmt "jr r%d" r
  | In (d, p) -> f fmt "in r%d, %d" d p
  | Out (p, s) -> f fmt "out %d, r%d" p s
  | Custom (e, d, a, b) -> f fmt "cust%d r%d, r%d, r%d" e d a b
  | Ei -> f fmt "ei"
  | Di -> f fmt "di"
  | Rti -> f fmt "rti"
  | Nop -> f fmt "nop"
  | Halt -> f fmt "halt"

let check_reg r =
  if r < 0 || r >= n_regs then
    invalid_arg (Printf.sprintf "Isa: register r%d out of range" r)

let validate = function
  | Alu (_, d, a, b) | Custom (_, d, a, b) ->
      check_reg d;
      check_reg a;
      check_reg b
  | Alui (_, d, a, _) | Lw (d, a, _) | Sw (d, a, _) ->
      check_reg d;
      check_reg a
  | Li (d, _) | In (d, _) | Out (_, d) | Jal (d, _) | Jr d -> check_reg d
  | B (_, a, b, _) ->
      check_reg a;
      check_reg b
  | J _ | Ei | Di | Rti | Nop | Halt -> ()
