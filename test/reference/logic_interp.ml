(* The gate-list interpreter that {!Codesign_rtl.Logic_sim} compiled
   away: gate records evaluated in topological order with [List.nth]
   operand lookup.  It keeps its own front end, so the differential
   tests compare two independent evaluators. *)

module Netlist = Codesign_rtl.Netlist

(* Topologically order the combinational gates (DFF outputs are state
   elements, not combinational dependencies). *)
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
  | None -> invalid_arg "Logic_interp: combinational cycle in netlist"
  | Some order ->
      Array.of_list
        (List.filter_map
           (fun gi ->
             if gates.(gi).Netlist.kind <> Netlist.Dff then Some gates.(gi)
             else None)
           order)

type t = {
  net : Netlist.t;
  values : int array;
  order : Netlist.gate array;
  dffs : Netlist.gate array;
  mutable cycles : int;
}

let create net =
  Netlist.validate net;
  let values = Array.make net.Netlist.n_nets 0 in
  if net.Netlist.n_nets > 1 then values.(1) <- 1;
  let dffs =
    Array.of_list
      (List.filter
         (fun (g : Netlist.gate) -> g.Netlist.kind = Netlist.Dff)
         net.Netlist.gates)
  in
  { net; values; order = topo_comb_order net; dffs; cycles = 0 }

let set_input t name v =
  let id = List.assoc name t.net.Netlist.inputs in
  t.values.(id) <- (if v <> 0 then 1 else 0)

let eval_gate t (g : Netlist.gate) =
  let v i = t.values.(List.nth g.Netlist.inputs i) in
  let r =
    match g.Netlist.kind with
    | Netlist.And -> v 0 land v 1
    | Netlist.Or -> v 0 lor v 1
    | Netlist.Xor -> v 0 lxor v 1
    | Netlist.Nand -> 1 - (v 0 land v 1)
    | Netlist.Nor -> 1 - (v 0 lor v 1)
    | Netlist.Not -> 1 - v 0
    | Netlist.Buf -> v 0
    | Netlist.Mux -> if v 0 = 0 then v 1 else v 2
    | Netlist.Dff -> assert false
  in
  t.values.(g.Netlist.output) <- r

let eval t = Array.iter (eval_gate t) t.order

let output t name = t.values.(List.assoc name t.net.Netlist.outputs)

let clock_cycle t =
  eval t;
  let ds =
    Array.map
      (fun (g : Netlist.gate) -> t.values.(List.hd g.Netlist.inputs))
      t.dffs
  in
  Array.iteri (fun i g -> t.values.(g.Netlist.output) <- ds.(i)) t.dffs;
  eval t;
  t.cycles <- t.cycles + 1

let cycles_run t = t.cycles

type snap = { s_values : int array; s_cycles : int }

let snapshot t = { s_values = Array.copy t.values; s_cycles = t.cycles }

let restore t s =
  if Array.length s.s_values <> Array.length t.values then
    invalid_arg "Logic_interp.restore: snapshot from a different netlist";
  Array.blit s.s_values 0 t.values 0 (Array.length t.values);
  t.cycles <- s.s_cycles

let reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  if Array.length t.values > 1 then t.values.(1) <- 1;
  t.cycles <- 0

let run_vectors t ~inputs vectors =
  reset t;
  let outs = List.map (fun (n, _) -> (n, ref [])) t.net.Netlist.outputs in
  List.iter
    (fun vec ->
      List.iter2 (fun name v -> set_input t name v) inputs vec;
      clock_cycle t;
      List.iter (fun (n, acc) -> acc := output t n :: !acc) outs)
    vectors;
  List.map (fun (n, acc) -> (n, List.rev !acc)) outs
