type binop =
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
  | Le
  | Eq
  | Ne

type expr =
  | Int of int
  | Var of string
  | Idx of string * expr
  | Bin of binop * expr * expr
  | Neg of expr
  | Not of expr
  | Ext of int * expr * expr * expr

type stmt =
  | Assign of string * expr
  | Store of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list * int
  | For of string * expr * expr * stmt list
  | PortOut of int * expr
  | PortIn of string * int
  | Send of string * expr
  | Recv of string * string

type proc = {
  name : string;
  params : string list;
  arrays : (string * int) list;
  results : string list;
  body : stmt list;
}

type io = {
  port_in : int -> int;
  port_out : int -> int -> unit;
  send : string -> int -> unit;
  recv : string -> int;
}

let null_io =
  {
    port_in = (fun _ -> 0);
    port_out = (fun _ _ -> ());
    send = (fun _ _ -> ());
    recv = (fun _ -> 0);
  }

let collecting_io () =
  let out = ref [] in
  ( {
      null_io with
      port_out = (fun p v -> out := (p, v) :: !out);
    },
    out )

(* ------------------------------------------------------------------ *)
(* Reference arithmetic                                                *)
(* ------------------------------------------------------------------ *)

let eval_bin op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 31)
  | Shr -> a asr (b land 31)
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0

let clamp_index len i = if i < 0 then 0 else if i >= len then len - 1 else i

(* ------------------------------------------------------------------ *)
(* Elaboration to CDFG                                                 *)
(* ------------------------------------------------------------------ *)

let cdfg_binop : binop -> Cdfg.opcode option = function
  | Add -> Some Cdfg.Add
  | Sub -> Some Cdfg.Sub
  | Mul -> Some Cdfg.Mul
  | Div -> Some Cdfg.Div
  | Rem -> Some Cdfg.Rem
  | And -> Some Cdfg.And
  | Or -> Some Cdfg.Or
  | Xor -> Some Cdfg.Xor
  | Shl -> Some Cdfg.Shl
  | Shr -> Some Cdfg.Shr
  | Lt -> Some Cdfg.Lt
  | Eq -> Some Cdfg.Eq
  | Le | Ne -> None (* lowered below *)

(* A builder for one CDFG block, with local value numbering: a [Read] of
   a variable already written (or read) in the same block reuses the
   existing value id, so intra-block dataflow through variables is
   explicit in the DFG.  Names containing ':' (ports, channels) are I/O
   and never numbered — every access is a fresh side effect. *)
module Bb = struct
  type t = {
    mutable ops : Cdfg.op list;
    mutable next : int;
    vals : (string, int) Hashtbl.t;
  }

  let create () = { ops = []; next = 0; vals = Hashtbl.create 8 }

  let emit b opcode args =
    let id = b.next in
    b.next <- id + 1;
    b.ops <- { Cdfg.id; opcode; args } :: b.ops;
    id

  let is_io name = String.contains name ':'

  let read_var b name =
    if is_io name then emit b (Cdfg.Read name) []
    else
      match Hashtbl.find_opt b.vals name with
      | Some id -> id
      | None ->
          let id = emit b (Cdfg.Read name) [] in
          Hashtbl.replace b.vals name id;
          id

  let write_var b name value =
    let id = emit b (Cdfg.Write name) [ value ] in
    if not (is_io name) then Hashtbl.replace b.vals name value;
    id

  let finish b ~label ~trip = Cdfg.block_make ~trip label (List.rev b.ops)
end

let elaborate p =
  let blocks = ref [] in
  let ctrl = ref [] in
  let counter = ref 0 in
  let fresh_label prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let rec const_eval = function
    | Int i -> Some i
    | Neg e -> Option.map (fun v -> -v) (const_eval e)
    | Bin (op, a, b) -> (
        match (const_eval a, const_eval b) with
        | Some a, Some b -> Some (eval_bin op a b)
        | _ -> None)
    | _ -> None
  in
  let rec emit_expr bb = function
    | Int i -> Bb.emit bb (Cdfg.Const i) []
    | Ext _ ->
        invalid_arg
          "Behavior.elaborate: Ext nodes are a software-path rewrite and \
           have no CDFG form"
    | Var v -> Bb.read_var bb v
    | Idx (a, i) ->
        let i = emit_expr bb i in
        Bb.emit bb (Cdfg.Load a) [ i ]
    | Neg e ->
        let e = emit_expr bb e in
        Bb.emit bb Cdfg.Neg [ e ]
    | Not e ->
        let e = emit_expr bb e in
        Bb.emit bb Cdfg.Not [ e ]
    | Bin (op, a, b) -> (
        let ea = emit_expr bb a in
        let eb = emit_expr bb b in
        match cdfg_binop op with
        | Some oc -> Bb.emit bb oc [ ea; eb ]
        | None -> (
            match op with
            | Le ->
                (* a <= b  ==  not (b < a) *)
                let lt = Bb.emit bb Cdfg.Lt [ eb; ea ] in
                Bb.emit bb Cdfg.Not [ lt ]
            | Ne ->
                let eq = Bb.emit bb Cdfg.Eq [ ea; eb ] in
                Bb.emit bb Cdfg.Not [ eq ]
            | _ -> assert false))
  in
  (* [emit_region label trip stmts] lowers a statement list into one or
     more blocks; straight-line statements accumulate into a current
     builder which is flushed whenever a nested region begins. *)
  let rec emit_region label trip stmts =
    let bb = ref (Bb.create ()) in
    let seg = ref 0 in
    let current_label () =
      if !seg = 0 then label else Printf.sprintf "%s.%d" label !seg
    in
    let flush () =
      let b = Bb.finish !bb ~label:(current_label ()) ~trip in
      if b.Cdfg.ops <> [] then begin
        blocks := b :: !blocks;
        incr seg
      end;
      bb := Bb.create ()
    in
    let last_label = ref label in
    List.iter
      (fun s ->
        match s with
        | Assign (v, e) ->
            let e = emit_expr !bb e in
            ignore (Bb.write_var !bb v e)
        | Store (a, i, e) ->
            let i = emit_expr !bb i in
            let e = emit_expr !bb e in
            ignore (Bb.emit !bb (Cdfg.Store a) [ i; e ])
        | PortOut (port, e) ->
            let e = emit_expr !bb e in
            ignore
              (Bb.write_var !bb (Printf.sprintf "port:%d" port) e)
        | PortIn (v, port) ->
            let r =
              Bb.read_var !bb (Printf.sprintf "port:%d" port)
            in
            ignore (Bb.write_var !bb v r)
        | Send (ch, e) ->
            let e = emit_expr !bb e in
            ignore (Bb.write_var !bb ("chan:" ^ ch) e)
        | Recv (v, ch) ->
            let r = Bb.read_var !bb ("chan:" ^ ch) in
            ignore (Bb.write_var !bb v r)
        | If (c, t, e) ->
            (* condition evaluated in the current block *)
            let ec = emit_expr !bb c in
            ignore (Bb.write_var !bb "%branch" ec);
            let before = current_label () in
            flush ();
            let lt = fresh_label (label ^ ".then") in
            let le = fresh_label (label ^ ".else") in
            if t <> [] then begin
              emit_region lt trip t;
              ctrl := (before, lt) :: !ctrl
            end;
            if e <> [] then begin
              emit_region le trip e;
              ctrl := (before, le) :: !ctrl
            end;
            last_label := before
        | While (c, body, expected) ->
            let ec = emit_expr !bb c in
            ignore (Bb.write_var !bb "%branch" ec);
            let before = current_label () in
            flush ();
            let lb = fresh_label (label ^ ".while") in
            emit_region lb (trip * max expected 0) body;
            ctrl := (before, lb) :: (lb, before) :: !ctrl;
            last_label := before
        | For (v, lo, hi, body) ->
            let elo = emit_expr !bb lo in
            ignore (Bb.write_var !bb v elo);
            let before = current_label () in
            flush ();
            let count =
              match (const_eval lo, const_eval hi) with
              | Some l, Some h -> max (h - l) 0
              | _ -> 8 (* default expected trip for dynamic bounds *)
            in
            let lb = fresh_label (label ^ ".for") in
            emit_region lb (trip * count) body;
            ctrl := (before, lb) :: (lb, before) :: !ctrl;
            last_label := before)
      stmts;
    flush ();
    ignore !last_label
  in
  emit_region "entry" 1 p.body;
  let blocks = List.rev !blocks in
  let blocks =
    if blocks = [] then [ Cdfg.block_make "entry" [] ] else blocks
  in
  (* keep only control edges whose endpoints survived (empty blocks are
     dropped by flush) *)
  let labels = List.map (fun b -> b.Cdfg.label) blocks in
  let ctrl =
    List.filter (fun (a, b) -> List.mem a labels && List.mem b labels) !ctrl
  in
  Cdfg.make ~name:p.name ~ctrl blocks

let rec stmt_count s =
  match s with
  | If (_, t, e) -> 1 + stmts_count t + stmts_count e
  | While (_, b, _) | For (_, _, _, b) -> 1 + stmts_count b
  | _ -> 1

and stmts_count l = List.fold_left (fun acc s -> acc + stmt_count s) 0 l

let static_stmts p = stmts_count p.body

let vars_of p =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let add v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      acc := v :: !acc
    end
  in
  List.iter add p.params;
  let rec expr = function
    | Int _ -> ()
    | Var v -> add v
    | Idx (_, i) -> expr i
    | Bin (_, a, b) ->
        expr a;
        expr b
    | Neg e | Not e -> expr e
    | Ext (_, acc, a, b) ->
        expr acc;
        expr a;
        expr b
  in
  let rec stmt = function
    | Assign (v, e) ->
        add v;
        expr e
    | Store (_, i, e) ->
        expr i;
        expr e
    | If (c, t, f) ->
        expr c;
        List.iter stmt t;
        List.iter stmt f
    | While (c, b, _) ->
        expr c;
        List.iter stmt b
    | For (v, lo, hi, b) ->
        add v;
        expr lo;
        expr hi;
        List.iter stmt b
    | PortOut (_, e) -> expr e
    | PortIn (v, _) -> add v
    | Send (_, e) -> expr e
    | Recv (v, _) -> add v
  in
  List.iter stmt p.body;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Execution: compile once into continuation-passing closures          *)
(* ------------------------------------------------------------------ *)

type scheduler = {
  tick : (unit -> unit) -> unit;
  port_in : int -> int;
  port_out : int -> int -> unit;
  send : string -> int -> (unit -> unit) -> unit;
  recv : string -> (int -> unit) -> unit;
}

let no_ext ext _ _ _ =
  invalid_arg
    (Printf.sprintf "Behavior.run: no evaluator for extension opcode %d" ext)

(* [run_cps] compiles the proc into closures over an [int array]
   holding every scalar, so a statement reads and writes slots instead
   of hashing names, and each array name is looked up once.  Every
   statement is compiled against the closure that runs after it, so
   nothing is allocated per step; the only state a paused behaviour
   keeps is in [env], the arrays, the fuel and the bounds of the [For]
   loops in progress (one pair of cells per [For] statement: a
   behaviour has no recursion, so no statement is ever active twice).
   Every call to a continuation or a scheduler operation is a tail
   call, so a behaviour whose scheduler continues at once runs in
   constant stack.

   The closures keep the tree-walker's order (operands left to right,
   the statement tick before the statement, a loop tick per [While]
   iteration before the body and per [For] iteration after it) and
   raise its errors at the same points: an unbound array fails when its
   access runs, not when it is compiled.  The tree-walker itself is
   kept as a test oracle in test/reference. *)
let run_cps ?(ext = no_ext) ?(fuel = 10_000_000) sched p bindings finish =
  let arrays : (string, int array) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (name, len) ->
      if len <= 0 then invalid_arg "Behavior.run: array of length <= 0";
      Hashtbl.replace arrays name (Array.make len 0))
    p.arrays;
  (* one slot per scalar; [vars_of] names every one the body uses *)
  let slots : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if not (Hashtbl.mem slots v) then
        Hashtbl.add slots v (Hashtbl.length slots))
    (vars_of p @ p.results);
  let slot = Hashtbl.find slots in
  let env = Array.make (Hashtbl.length slots) 0 in
  List.iter
    (fun v ->
      env.(slot v) <- (try List.assoc v bindings with Not_found -> 0))
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
  let fuel = ref fuel and tick = sched.tick in
  (* [step k] ticks, then spends one unit of fuel and goes on to [k]:
     the fuel check runs after the tick, as in the tree-walker *)
  let step k =
    let checked () =
      decr fuel;
      if !fuel < 0 then
        invalid_arg ("Behavior.run: fuel exhausted in " ^ p.name);
      k ()
    in
    fun () -> tick checked
  in
  let unbound a () = invalid_arg ("Behavior.run: unbound array " ^ a) in
  let rec expr = function
    | Int n -> fun () -> n
    | Var v ->
        let s = slot v in
        fun () -> Array.unsafe_get env s
    | Idx (a, i) -> (
        let i = expr i in
        match Hashtbl.find_opt arrays a with
        | None -> unbound a
        | Some arr ->
            let len = Array.length arr in
            fun () -> Array.unsafe_get arr (clamp_index len (i ())))
    | Bin (op, a, b) -> bin op (expr a) (expr b)
    | Neg e ->
        let e = expr e in
        fun () -> -e ()
    | Not e ->
        let e = expr e in
        fun () -> if e () = 0 then 1 else 0
    | Ext (op, acc, a, b) ->
        let acc = expr acc and a = expr a and b = expr b in
        fun () ->
          let acc = acc () in
          let a = a () in
          ext op acc a (b ())
  (* one closure per operator, the left operand first *)
  and bin op a b =
    match op with
    | Add -> fun () -> let x = a () in x + b ()
    | Sub -> fun () -> let x = a () in x - b ()
    | Mul -> fun () -> let x = a () in x * b ()
    | Div ->
        fun () -> let x = a () in let y = b () in if y = 0 then 0 else x / y
    | Rem ->
        fun () -> let x = a () in let y = b () in if y = 0 then 0 else x mod y
    | And -> fun () -> let x = a () in x land b ()
    | Or -> fun () -> let x = a () in x lor b ()
    | Xor -> fun () -> let x = a () in x lxor b ()
    | Shl -> fun () -> let x = a () in x lsl (b () land 31)
    | Shr -> fun () -> let x = a () in x asr (b () land 31)
    | Lt -> fun () -> let x = a () in if x < b () then 1 else 0
    | Le -> fun () -> let x = a () in if x <= b () then 1 else 0
    | Eq -> fun () -> let x = a () in if x = b () then 1 else 0
    | Ne -> fun () -> let x = a () in if x <> b () then 1 else 0
  in
  (* [stmt s next]: the closure that runs [s] and then [next] *)
  let rec stmt s next =
    match s with
    | Assign (v, e) ->
        let s = slot v and e = expr e in
        step (fun () ->
            Array.unsafe_set env s (e ());
            next ())
    | Store (a, i, e) -> (
        let i = expr i and e = expr e in
        match Hashtbl.find_opt arrays a with
        | None -> step (unbound a)
        | Some arr ->
            let len = Array.length arr in
            step (fun () ->
                let idx = clamp_index len (i ()) in
                Array.unsafe_set arr idx (e ());
                next ()))
    | If (c, t, e) ->
        let c = expr c and t = block t next and e = block e next in
        step (fun () -> if c () <> 0 then t () else e ())
    | While (c, body, _) ->
        let c = expr c and again = ref next in
        let body = step (block body (fun () -> !again ())) in
        let test () = if c () <> 0 then body () else next () in
        again := test;
        step test
    | For (v, lo, hi, body) ->
        let s = slot v and lo = expr lo and hi = expr hi in
        let i = ref 0 and limit = ref 0 and again = ref next in
        let body =
          block body (fun () ->
              (* the body may move the induction variable, as in C *)
              i := Array.unsafe_get env s + 1;
              !again ())
        in
        let test () =
          if !i < !limit then begin
            Array.unsafe_set env s !i;
            body ()
          end
          else next ()
        in
        again := step test;
        step (fun () ->
            let l = lo () in
            limit := hi ();
            i := l;
            test ())
    | PortOut (port, e) ->
        let e = expr e and port_out = sched.port_out in
        step (fun () ->
            port_out port (e ());
            next ())
    | PortIn (v, port) ->
        let s = slot v and port_in = sched.port_in in
        step (fun () ->
            Array.unsafe_set env s (port_in port);
            next ())
    | Send (ch, e) ->
        let e = expr e and send = sched.send ch in
        step (fun () -> send (e ()) next)
    | Recv (v, ch) ->
        let s = slot v and recv = sched.recv ch in
        let got x =
          Array.unsafe_set env s x;
          next ()
        in
        step (fun () -> recv got)
  and block l next =
    match l with [] -> next | s :: rest -> stmt s (block rest next)
  in
  block p.body (fun () ->
      finish (List.map (fun v -> (v, env.(slot v))) p.results))
    ()

let run ?(io = null_io) ?ext ?tick ?fuel p bindings =
  let results = ref [] in
  run_cps ?ext ?fuel
    {
      tick =
        (match tick with
        | None -> fun k -> k ()
        | Some tick ->
            fun k ->
              tick ();
              k ());
      port_in = io.port_in;
      port_out = io.port_out;
      send =
        (fun ch v k ->
          io.send ch v;
          k ());
      recv = (fun ch k -> k (io.recv ch));
    }
    p bindings
    (fun r -> results := r);
  !results

(* ------------------------------------------------------------------ *)
(* Pretty printer                                                      *)
(* ------------------------------------------------------------------ *)

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Lt -> "<"
  | Le -> "<="
  | Eq -> "=="
  | Ne -> "!="

let rec pp_expr fmt = function
  | Int i -> Format.fprintf fmt "%d" i
  | Var v -> Format.fprintf fmt "%s" v
  | Idx (a, i) -> Format.fprintf fmt "%s[%a]" a pp_expr i
  | Bin (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Neg e -> Format.fprintf fmt "(-%a)" pp_expr e
  | Not e -> Format.fprintf fmt "(!%a)" pp_expr e
  | Ext (op, acc, a, b) ->
      Format.fprintf fmt "ext%d(%a, %a, %a)" op pp_expr acc pp_expr a
        pp_expr b

let rec pp_stmt fmt = function
  | Assign (v, e) -> Format.fprintf fmt "%s = %a;" v pp_expr e
  | Store (a, i, e) ->
      Format.fprintf fmt "%s[%a] = %a;" a pp_expr i pp_expr e
  | If (c, t, []) ->
      Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,}" pp_expr c pp_stmts t
  | If (c, t, e) ->
      Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,@[<v 2>} else {@,%a@]@,}"
        pp_expr c pp_stmts t pp_stmts e
  | While (c, b, _) ->
      Format.fprintf fmt "@[<v 2>while (%a) {@,%a@]@,}" pp_expr c pp_stmts b
  | For (v, lo, hi, b) ->
      Format.fprintf fmt "@[<v 2>for (%s = %a; %s < %a; %s++) {@,%a@]@,}" v
        pp_expr lo v pp_expr hi v pp_stmts b
  | PortOut (p, e) -> Format.fprintf fmt "out(%d, %a);" p pp_expr e
  | PortIn (v, p) -> Format.fprintf fmt "%s = in(%d);" v p
  | Send (ch, e) -> Format.fprintf fmt "send(%s, %a);" ch pp_expr e
  | Recv (v, ch) -> Format.fprintf fmt "%s = recv(%s);" v ch

and pp_stmts fmt l =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt fmt l

let pp fmt p =
  Format.fprintf fmt "@[<v 2>proc %s(%s) {@,%a@]@,}" p.name
    (String.concat ", " p.params)
    pp_stmts p.body
