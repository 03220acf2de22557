type gate_kind = And | Or | Xor | Nand | Nor | Not | Buf | Mux | Dff

type gate = { kind : gate_kind; inputs : int list; output : int }

type t = {
  name : string;
  n_nets : int;
  gates : gate list;
  inputs : (string * int) list;
  outputs : (string * int) list;
}

let gate_arity = function
  | And | Or | Xor | Nand | Nor -> 2
  | Not | Buf | Dff -> 1
  | Mux -> 3

let gate_area = function
  | And | Or -> 1
  | Nand | Nor -> 1
  | Xor -> 2
  | Not | Buf -> 1
  | Mux -> 3
  | Dff -> 6

let area t = List.fold_left (fun a g -> a + gate_area g.kind) 0 t.gates
let gate_count t = List.length t.gates
let dff_count t =
  List.length (List.filter (fun (g : gate) -> g.kind = Dff) t.gates)

let validate t =
  let driver = Array.make t.n_nets false in
  driver.(0) <- true;
  if t.n_nets > 1 then driver.(1) <- true;
  List.iter
    (fun (n, i) ->
      if i < 0 || i >= t.n_nets then
        invalid_arg ("Netlist: input net out of range: " ^ n);
      if driver.(i) then
        invalid_arg ("Netlist: input " ^ n ^ " conflicts with another driver");
      driver.(i) <- true)
    t.inputs;
  List.iter
    (fun (g : gate) ->
      if List.length g.inputs <> gate_arity g.kind then
        invalid_arg "Netlist: gate arity mismatch";
      List.iter
        (fun i ->
          if i < 0 || i >= t.n_nets then
            invalid_arg "Netlist: gate input net out of range")
        g.inputs;
      if g.output < 0 || g.output >= t.n_nets then
        invalid_arg "Netlist: gate output net out of range";
      if driver.(g.output) then
        invalid_arg
          (Printf.sprintf "Netlist: net %d has multiple drivers" g.output);
      driver.(g.output) <- true)
    t.gates;
  List.iter
    (fun (n, i) ->
      if i < 0 || i >= t.n_nets then
        invalid_arg ("Netlist: output net out of range: " ^ n);
      if not driver.(i) then
        invalid_arg ("Netlist: output " ^ n ^ " is undriven"))
    t.outputs

let is_combinational_dag t =
  (* nodes = gates; edge g1 -> g2 when g1's output feeds g2, except through
     a Dff (whose output is a state element, not a combinational path). *)
  let gates = Array.of_list t.gates in
  let n = Array.length gates in
  let producer = Hashtbl.create 64 in
  Array.iteri
    (fun gi g -> if g.kind <> Dff then Hashtbl.replace producer g.output gi)
    gates;
  let edges = ref [] in
  Array.iteri
    (fun gi (g : gate) ->
      List.iter
        (fun i ->
          match Hashtbl.find_opt producer i with
          | Some src -> edges := (src, gi) :: !edges
          | None -> ())
        g.inputs)
    gates;
  Codesign_ir.Graph_algo.is_dag
    (Codesign_ir.Graph_algo.create ~n ~edges:!edges)

module Builder = struct
  type b = {
    bname : string;
    mutable next : int;
    mutable bgates : gate list;
    mutable binputs : (string * int) list;
    mutable boutputs : (string * int) list;
  }

  let const0 = 0
  let const1 = 1

  let create ?(name = "netlist") () =
    { bname = name; next = 2; bgates = []; binputs = []; boutputs = [] }

  let fresh b =
    let n = b.next in
    b.next <- n + 1;
    n

  let input b name =
    let n = fresh b in
    b.binputs <- (name, n) :: b.binputs;
    n

  let gate b kind ins =
    let o = fresh b in
    b.bgates <- { kind; inputs = ins; output = o } :: b.bgates;
    o

  let and2 b x y = gate b And [ x; y ]
  let or2 b x y = gate b Or [ x; y ]
  let xor2 b x y = gate b Xor [ x; y ]
  let not1 b x = gate b Not [ x ]
  let mux b ~sel ~a ~b_in = gate b Mux [ sel; a; b_in ]
  let dff b d = gate b Dff [ d ]

  let rec reduce b f neutral = function
    | [] -> neutral
    | [ x ] -> x
    | xs ->
        (* pairwise reduction for balanced trees *)
        let rec pair = function
          | [] -> []
          | [ x ] -> [ x ]
          | x :: y :: rest -> f b x y :: pair rest
        in
        reduce b f neutral (pair xs)

  let and_many b xs = reduce b and2 const1 xs

  let output b name n = b.boutputs <- (name, n) :: b.boutputs

  let finish b =
    let t =
      {
        name = b.bname;
        n_nets = b.next;
        gates = List.rev b.bgates;
        inputs = List.rev b.binputs;
        outputs = List.rev b.boutputs;
      }
    in
    validate t;
    t
end

let decoder ~width ~match_value () =
  if width <= 0 then invalid_arg "Netlist.decoder: width must be positive";
  if match_value < 0 || (width < 62 && match_value lsr width <> 0) then
    invalid_arg "Netlist.decoder: match_value does not fit in width";
  let b = Builder.create ~name:"decoder" () in
  let bits =
    List.init width (fun i ->
        let a = Builder.input b (Printf.sprintf "a%d" i) in
        if (match_value lsr i) land 1 = 1 then a else Builder.not1 b a)
  in
  Builder.output b "hit" (Builder.and_many b bits);
  Builder.finish b
