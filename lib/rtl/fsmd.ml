module C = Codesign_ir.Cdfg

type expr =
  | Const of int
  | Reg of string
  | Inp of string
  | Bin of C.opcode * expr * expr
  | Un of C.opcode * expr

type action =
  | Set of string * expr
  | AOut of string * expr
  | ARecv of string * string
  | ASend of string * expr

type transition = { guard : expr option; target : string }
type state = { sname : string; actions : action list; trans : transition list }
type t = { name : string; states : state list; start : string }

type env = {
  input : string -> int;
  output : string -> int -> unit;
  recv : string -> int;
  send : string -> int -> unit;
  tick : unit -> unit;
}

let null_env =
  {
    input = (fun _ -> 0);
    output = (fun _ _ -> ());
    recv = (fun _ -> 0);
    send = (fun _ _ -> ());
    tick = (fun () -> ());
  }

let rec check_expr = function
  | Const _ | Reg _ | Inp _ -> ()
  | Bin (op, a, b) ->
      if not (C.is_arith op && C.arity op = 2) then
        invalid_arg ("Fsmd: non-binary opcode in Bin: " ^ C.opcode_name op);
      check_expr a;
      check_expr b
  | Un (op, a) ->
      if not (C.is_arith op && C.arity op = 1) then
        invalid_arg ("Fsmd: non-unary opcode in Un: " ^ C.opcode_name op);
      check_expr a

let make ?(name = "fsmd") ~start states =
  let names = List.map (fun s -> s.sname) states in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Fsmd.make: duplicate state names";
  if not (List.mem start names) then
    invalid_arg ("Fsmd.make: start state " ^ start ^ " missing");
  List.iter
    (fun s ->
      List.iter
        (fun a ->
          match a with
          | Set (_, e) | AOut (_, e) | ASend (_, e) -> check_expr e
          | ARecv _ -> ())
        s.actions;
      List.iter
        (fun tr ->
          Option.iter check_expr tr.guard;
          if not (List.mem tr.target names) then
            invalid_arg
              ("Fsmd.make: transition to unknown state " ^ tr.target))
        s.trans)
    states;
  { name; states; start }

let n_states t = List.length t.states

let registers t =
  let acc = ref [] in
  let add r = if not (List.mem r !acc) then acc := r :: !acc in
  let rec expr = function
    | Const _ | Inp _ -> ()
    | Reg r -> add r
    | Bin (_, a, b) ->
        expr a;
        expr b
    | Un (_, a) -> expr a
  in
  List.iter
    (fun s ->
      List.iter
        (function
          | Set (r, e) ->
              add r;
              expr e
          | AOut (_, e) | ASend (_, e) -> expr e
          | ARecv (r, _) -> add r)
        s.actions;
      List.iter (fun tr -> Option.iter expr tr.guard) s.trans)
    t.states;
  List.sort compare !acc

type run_result = {
  cycles : int;
  final_regs : (string * int) list;
  halted_in : string;
}

let run ?(env = null_env) ?(regs = []) ?(max_cycles = 1_000_000) t =
  let state_tbl = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace state_tbl s.sname s) t.states;
  let reg_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (r, v) -> Hashtbl.replace reg_tbl r v) regs;
  let get r = try Hashtbl.find reg_tbl r with Not_found -> 0 in
  let rec eval = function
    | Const i -> i
    | Reg r -> get r
    | Inp p -> env.input p
    | Bin (op, a, b) -> (
        let a = eval a and b = eval b in
        match op with
        | C.Add -> a + b
        | C.Sub -> a - b
        | C.Mul -> a * b
        | C.Div -> if b = 0 then 0 else a / b
        | C.Rem -> if b = 0 then 0 else a mod b
        | C.And -> a land b
        | C.Or -> a lor b
        | C.Xor -> a lxor b
        | C.Shl -> a lsl (b land 31)
        | C.Shr -> a asr (b land 31)
        | C.Lt -> if a < b then 1 else 0
        | C.Eq -> if a = b then 1 else 0
        | _ -> assert false)
    | Un (op, a) -> (
        let a = eval a in
        match op with
        | C.Neg -> -a
        | C.Not -> if a = 0 then 1 else 0
        | _ -> assert false)
  in
  let cycles = ref 0 in
  let current = ref (Hashtbl.find state_tbl t.start) in
  let running = ref true in
  while !running do
    if !cycles >= max_cycles then
      invalid_arg ("Fsmd.run: max_cycles exceeded in " ^ t.name);
    let s = !current in
    (* evaluate all RHSs against pre-cycle state, then commit *)
    let commits = ref [] in
    List.iter
      (fun a ->
        match a with
        | Set (r, e) -> commits := (r, eval e) :: !commits
        | AOut (p, e) -> env.output p (eval e)
        | ARecv (r, ch) -> commits := (r, env.recv ch) :: !commits
        | ASend (ch, e) -> env.send ch (eval e))
      s.actions;
    List.iter (fun (r, v) -> Hashtbl.replace reg_tbl r v) (List.rev !commits);
    incr cycles;
    env.tick ();
    (* choose next state *)
    let rec choose = function
      | [] -> None
      | tr :: rest -> (
          match tr.guard with
          | None -> Some tr.target
          | Some g -> if eval g <> 0 then Some tr.target else choose rest)
    in
    match choose s.trans with
    | Some nxt -> current := Hashtbl.find state_tbl nxt
    | None -> running := false
  done;
  let final =
    Hashtbl.fold (fun r v acc -> (r, v) :: acc) reg_tbl []
    |> List.sort compare
  in
  { cycles = !cycles; final_regs = final; halted_in = !current.sname }
