(* Shared front end: topologically order the combinational gates (DFF
   outputs are state elements, not combinational dependencies). *)
let topo_comb_order (net : Netlist.t) =
  let gates = Array.of_list net.Netlist.gates in
  let n = Array.length gates in
  let producer = Hashtbl.create 64 in
  Array.iteri
    (fun gi g ->
      if g.Netlist.kind <> Netlist.Dff then
        Hashtbl.replace producer g.Netlist.output gi)
    gates;
  let edges = ref [] in
  Array.iteri
    (fun gi (g : Netlist.gate) ->
      List.iter
        (fun i ->
          match Hashtbl.find_opt producer i with
          | Some src -> edges := (src, gi) :: !edges
          | None -> ())
        g.Netlist.inputs)
    gates;
  let g = Codesign_ir.Graph_algo.create ~n ~edges:!edges in
  match Codesign_ir.Graph_algo.topo_sort g with
  | None -> invalid_arg "Logic_sim: combinational cycle in netlist"
  | Some order ->
      Array.of_list
        (List.filter_map
           (fun gi ->
             if gates.(gi).Netlist.kind <> Netlist.Dff then Some gates.(gi)
             else None)
           order)

(* ------------------------------------------------------------------ *)
(* the compiled evaluator                                              *)
(* ------------------------------------------------------------------ *)

(* Gate opcodes of the compiled program (a closed int enum: the gate
   kind match happens once, at compile time, not per gate per cycle). *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_nand = 3
let op_nor = 4
let op_not = 5
let op_buf = 6
let op_mux = 7

let opcode = function
  | Netlist.And -> op_and
  | Netlist.Or -> op_or
  | Netlist.Xor -> op_xor
  | Netlist.Nand -> op_nand
  | Netlist.Nor -> op_nor
  | Netlist.Not -> op_not
  | Netlist.Buf -> op_buf
  | Netlist.Mux -> op_mux
  | Netlist.Dff -> assert false

(* One fixed-stride record per combinational gate, topo order:
   [opcode; output net; in0; in1; in2] (unused operand slots are 0,
   which is the constant-0 net and thus always a valid index). *)
let stride = 5

type t = {
  net : Netlist.t;
  values : int array;  (** current value of every net *)
  prog : int array;  (** compiled combinational program, [stride] per gate *)
  n_gates : int;  (** combinational gates in [prog] *)
  dff_d : int array;  (** D-input net id per flop *)
  dff_q : int array;  (** Q-output net id per flop *)
  dff_tmp : int array;  (** preallocated sample buffer for two-phase latch *)
  input_ids : (string, int) Hashtbl.t;
  output_ids : (string, int) Hashtbl.t;
  mutable cycles : int;
}

let compile_order (order : Netlist.gate array) =
  let n = Array.length order in
  let prog = Array.make (n * stride) 0 in
  Array.iteri
    (fun i (g : Netlist.gate) ->
      let base = i * stride in
      prog.(base) <- opcode g.Netlist.kind;
      prog.(base + 1) <- g.Netlist.output;
      List.iteri (fun j inp -> prog.(base + 2 + j) <- inp) g.Netlist.inputs)
    order;
  prog

let create net =
  Netlist.validate net;
  let values = Array.make net.Netlist.n_nets 0 in
  if net.Netlist.n_nets > 1 then values.(1) <- 1;
  let order = topo_comb_order net in
  let dffs =
    Array.of_list
      (List.filter
         (fun (g : Netlist.gate) -> g.Netlist.kind = Netlist.Dff)
         net.Netlist.gates)
  in
  let name_table pairs =
    let tbl = Hashtbl.create (List.length pairs) in
    List.iter (fun (n, id) -> Hashtbl.replace tbl n id) pairs;
    tbl
  in
  {
    net;
    values;
    prog = compile_order order;
    n_gates = Array.length order;
    dff_d =
      Array.map (fun (g : Netlist.gate) -> List.hd g.Netlist.inputs) dffs;
    dff_q = Array.map (fun (g : Netlist.gate) -> g.Netlist.output) dffs;
    dff_tmp = Array.make (Array.length dffs) 0;
    input_ids = name_table net.Netlist.inputs;
    output_ids = name_table net.Netlist.outputs;
    cycles = 0;
  }

let unknown_name t kind name =
  invalid_arg
    (Printf.sprintf "Logic_sim.%s: unknown %s %S in netlist %s"
       (match kind with `Input -> "set_input" | `Output -> "output")
       (match kind with `Input -> "input" | `Output -> "output")
       name t.net.Netlist.name)

let set_input t name v =
  match Hashtbl.find_opt t.input_ids name with
  | Some id -> t.values.(id) <- (if v <> 0 then 1 else 0)
  | None -> unknown_name t `Input name

let eval t =
  let p = t.prog and v = t.values in
  let n = t.n_gates in
  for i = 0 to n - 1 do
    let base = i * stride in
    let op = p.(base) in
    let out = p.(base + 1) in
    let a = v.(p.(base + 2)) in
    v.(out) <-
      (if op <= op_xor then
         let b = v.(p.(base + 3)) in
         if op = op_and then a land b
         else if op = op_or then a lor b
         else a lxor b
       else if op <= op_nor then
         let b = v.(p.(base + 3)) in
         if op = op_nand then 1 - (a land b) else 1 - (a lor b)
       else if op = op_not then 1 - a
       else if op = op_buf then a
       else if a = 0 then v.(p.(base + 3))
       else v.(p.(base + 4)))
  done

let output t name =
  match Hashtbl.find_opt t.output_ids name with
  | Some id -> t.values.(id)
  | None -> unknown_name t `Output name

let clock_cycle t =
  eval t;
  (* sample all D inputs first, then update all Q outputs, into a buffer
     preallocated at [create] — no per-cycle allocation *)
  let nd = Array.length t.dff_d in
  for i = 0 to nd - 1 do
    t.dff_tmp.(i) <- t.values.(t.dff_d.(i))
  done;
  for i = 0 to nd - 1 do
    t.values.(t.dff_q.(i)) <- t.dff_tmp.(i)
  done;
  eval t;
  t.cycles <- t.cycles + 1

let cycles_run t = t.cycles

let reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  if Array.length t.values > 1 then t.values.(1) <- 1;
  t.cycles <- 0

type snap = { s_values : int array; s_cycles : int }

let snapshot t = { s_values = Array.copy t.values; s_cycles = t.cycles }

let restore t s =
  if Array.length s.s_values <> Array.length t.values then
    invalid_arg "Logic_sim.restore: snapshot from a different netlist";
  Array.blit s.s_values 0 t.values 0 (Array.length t.values);
  t.cycles <- s.s_cycles

let run_vectors t ~inputs vectors =
  (* fresh DFF/net state per call: vector responses must not depend on
     whatever a previous [run_vectors] left latched *)
  reset t;
  let outs = List.map (fun (n, _) -> (n, ref [])) t.net.Netlist.outputs in
  List.iter
    (fun vec ->
      List.iter2 (fun name v -> set_input t name v) inputs vec;
      clock_cycle t;
      List.iter (fun (n, acc) -> acc := output t n :: !acc) outs)
    vectors;
  List.map (fun (n, acc) -> (n, List.rev !acc)) outs
