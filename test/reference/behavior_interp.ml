open Codesign_ir.Behavior

let no_ext ext _ _ _ =
  invalid_arg
    (Printf.sprintf "Behavior.run: no evaluator for extension opcode %d" ext)

let run ?(io = null_io) ?(ext = no_ext) ?(tick = fun () -> ())
    ?(fuel = 10_000_000) p bindings =
  let vars : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let arrays : (string, int array) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (name, len) ->
      if len <= 0 then invalid_arg "Behavior.run: array of length <= 0";
      Hashtbl.replace arrays name (Array.make len 0))
    p.arrays;
  List.iter
    (fun v ->
      let value = try List.assoc v bindings with Not_found -> 0 in
      Hashtbl.replace vars v value)
    p.params;
  (* bindings may also pre-load array cells, written as "arr[3]" *)
  List.iter
    (fun (k, v) ->
      match String.index_opt k '[' with
      | None -> ()
      | Some i ->
          let name = String.sub k 0 i in
          let idx =
            int_of_string (String.sub k (i + 1) (String.length k - i - 2))
          in
          (match Hashtbl.find_opt arrays name with
          | Some a -> a.(clamp_index (Array.length a) idx) <- v
          | None -> invalid_arg ("Behavior.run: unknown array " ^ name)))
    bindings;
  let fuel = ref fuel in
  let get v = try Hashtbl.find vars v with Not_found -> 0 in
  let arr name =
    try Hashtbl.find arrays name
    with Not_found -> invalid_arg ("Behavior.run: unbound array " ^ name)
  in
  let rec eval = function
    | Int i -> i
    | Var v -> get v
    | Idx (a, i) ->
        let arr = arr a in
        arr.(clamp_index (Array.length arr) (eval i))
    | Bin (op, a, b) ->
        let a = eval a in
        let b = eval b in
        eval_bin op a b
    | Neg e -> -eval e
    | Not e -> if eval e = 0 then 1 else 0
    | Ext (op, acc, a, b) ->
        let acc = eval acc in
        let a = eval a in
        let b = eval b in
        ext op acc a b
  in
  let user_tick = tick in
  let tick () =
    user_tick ();
    decr fuel;
    if !fuel < 0 then invalid_arg ("Behavior.run: fuel exhausted in " ^ p.name)
  in
  let rec exec_stmt s =
    tick ();
    match s with
    | Assign (v, e) -> Hashtbl.replace vars v (eval e)
    | Store (a, i, e) ->
        let arr = arr a in
        let idx = clamp_index (Array.length arr) (eval i) in
        arr.(idx) <- eval e
    | If (c, t, e) -> if eval c <> 0 then exec_list t else exec_list e
    | While (c, body, _) ->
        while eval c <> 0 do
          tick ();
          exec_list body
        done
    | For (v, lo, hi, body) ->
        let lo = eval lo and hi = eval hi in
        let i = ref lo in
        while !i < hi do
          Hashtbl.replace vars v !i;
          exec_list body;
          (* allow body to adjust the induction variable, like C for *)
          i := get v + 1;
          tick ()
        done
    | PortOut (port, e) -> io.port_out port (eval e)
    | PortIn (v, port) -> Hashtbl.replace vars v (io.port_in port)
    | Send (ch, e) -> io.send ch (eval e)
    | Recv (v, ch) -> Hashtbl.replace vars v (io.recv ch)
  and exec_list l = List.iter exec_stmt l in
  exec_list p.body;
  List.map (fun v -> (v, get v)) p.results
