type opcode =
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
  | Lt
  | Eq
  | Neg
  | Not
  | Const of int
  | Read of string
  | Write of string
  | Load of string
  | Store of string

type op = { id : int; opcode : opcode; args : int list }
type block = { label : string; ops : op list; trip : int }

type t = {
  name : string;
  blocks : block list;
  ctrl : (string * string) list;
}

let arity = function
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Lt | Eq -> 2
  | Neg | Not | Write _ | Load _ -> 1
  | Store _ -> 2
  | Const _ | Read _ -> 0

let is_arith = function
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Lt | Eq | Neg
  | Not ->
      true
  | Const _ | Read _ | Write _ | Load _ | Store _ -> false

let opcode_name = function
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
  | Lt -> "lt"
  | Eq -> "eq"
  | Neg -> "neg"
  | Not -> "not"
  | Const _ -> "const"
  | Read _ -> "read"
  | Write _ -> "write"
  | Load _ -> "ld"
  | Store _ -> "st"

let block_make ?(trip = 1) label ops = { label; ops; trip }

let validate_block b =
  List.iteri
    (fun i op ->
      if op.id <> i then
        invalid_arg
          (Printf.sprintf "Cdfg: block %s op id %d at index %d" b.label op.id
             i);
      if List.length op.args <> arity op.opcode then
        invalid_arg
          (Printf.sprintf "Cdfg: block %s op %d (%s): bad arity" b.label i
             (opcode_name op.opcode));
      List.iter
        (fun a ->
          if a < 0 || a >= i then
            invalid_arg
              (Printf.sprintf
                 "Cdfg: block %s op %d refers to arg %d (not earlier)"
                 b.label i a))
        op.args)
    b.ops;
  if b.trip < 0 then invalid_arg "Cdfg: negative trip count"

let make ?(name = "cdfg") ?(ctrl = []) blocks =
  let labels = List.map (fun b -> b.label) blocks in
  let sorted = List.sort_uniq compare labels in
  if List.length sorted <> List.length labels then
    invalid_arg "Cdfg.make: duplicate block labels";
  List.iter validate_block blocks;
  List.iter
    (fun (a, b) ->
      if not (List.mem a labels && List.mem b labels) then
        invalid_arg
          (Printf.sprintf "Cdfg.make: control edge %s -> %s names a missing \
                           block" a b))
    ctrl;
  { name; blocks; ctrl }

let op_mix g =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun op ->
          if is_arith op.opcode then begin
            let k = opcode_name op.opcode in
            let cur = try Hashtbl.find tbl k with Not_found -> 0 in
            Hashtbl.replace tbl k (cur + b.trip)
          end)
        b.ops)
    g.blocks;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let total_ops g =
  List.fold_left (fun acc b -> acc + (b.trip * List.length b.ops)) 0 g.blocks
