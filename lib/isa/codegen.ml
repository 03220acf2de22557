module B = Codesign_ir.Behavior

type layout = {
  base : int;
  var_addr : (string * int) list;
  arr_addr : (string * int) list;
  data_words : int;
}

let default_base = 4096

(* Expression register stack. *)
let stack_base = 8
let stack_top = 27

(* Scratch register for array-index clamping; registers r1..r6 hold the
   hoisted bounds of dynamically-bounded for loops, one per nesting
   level. *)
let clamp_scratch = 7
let bound_base = 1
let bound_top = 6

(* Constant folding with the reference semantics of {!B.eval_bin}. *)
let rec const_eval (e : B.expr) =
  match e with
  | B.Int i -> Some i
  | B.Neg e -> Option.map (fun v -> -v) (const_eval e)
  | B.Not e -> Option.map (fun v -> if v = 0 then 1 else 0) (const_eval e)
  | B.Bin (op, a, b) -> (
      match (const_eval a, const_eval b) with
      | Some a, Some b -> Some (B.eval_bin op a b)
      | _ -> None)
  | B.Var _ | B.Idx _ | B.Ext _ -> None

let rec assigns_var v (s : B.stmt) =
  match s with
  | B.Assign (x, _) | B.PortIn (x, _) | B.Recv (x, _) -> x = v
  | B.Store _ | B.PortOut _ | B.Send _ -> false
  | B.If (_, t, e) ->
      List.exists (assigns_var v) t || List.exists (assigns_var v) e
  | B.While (_, b, _) -> List.exists (assigns_var v) b
  | B.For (x, _, _, b) -> x = v || List.exists (assigns_var v) b

(* Interval analysis over an environment of known variable ranges (for
   induction variables with constant bounds that the loop body does not
   reassign).  Used to elide the bounds clamp on array accesses that are
   provably in bounds, so the common in-bounds kernels keep their exact
   instruction sequences and cycle counts. *)
let rec range renv (e : B.expr) : (int * int) option =
  match const_eval e with
  | Some i -> Some (i, i)
  | None -> (
      match e with
      | B.Int _ -> None (* unreachable: handled by const_eval *)
      | B.Var v -> List.assoc_opt v renv
      | B.Not _ -> Some (0, 1)
      | B.Neg e ->
          Option.map (fun (l, h) -> (-h, -l)) (range renv e)
      | B.Idx _ | B.Ext _ -> None
      | B.Bin (op, a, b) -> (
          let ra = range renv a and rb = range renv b in
          match (op, ra, rb) with
          | (B.Lt | B.Le | B.Eq | B.Ne), _, _ -> Some (0, 1)
          | B.Add, Some (la, ha), Some (lb, hb) -> Some (la + lb, ha + hb)
          | B.Sub, Some (la, ha), Some (lb, hb) -> Some (la - hb, ha - lb)
          | B.Mul, Some (la, ha), Some (lb, hb) ->
              let ps = [ la * lb; la * hb; ha * lb; ha * hb ] in
              Some
                ( List.fold_left min (List.hd ps) ps,
                  List.fold_left max (List.hd ps) ps )
          | B.And, Some (la, ha), _ when la >= 0 ->
              (* x land y clears bits of a non-negative x *)
              Some (0, ha)
          | B.And, _, Some (lb, hb) when lb >= 0 -> Some (0, hb)
          | B.Div, Some (la, ha), Some (lb, hb) when la >= 0 && lb > 0 ->
              Some (la / hb, ha / lb)
          | B.Rem, Some (la, _), Some (lb, hb) when lb > 0 ->
              let m = hb - 1 in
              if la >= 0 then Some (0, m) else Some (-m, m)
          | B.Shr, Some (la, ha), _ -> (
              match const_eval b with
              | Some k ->
                  let k = k land 31 in
                  Some (la asr k, ha asr k)
              | None -> None)
          | _ -> None))

let layout_of (p : B.proc) =
  let base = default_base in
  let vars = B.vars_of p in
  let next = ref base in
  let var_addr =
    List.map
      (fun v ->
        let a = !next in
        incr next;
        (v, a))
      vars
  in
  let arr_addr =
    List.map
      (fun (a, len) ->
        let addr = !next in
        next := !next + len;
        (a, addr))
      p.B.arrays
  in
  { base; var_addr; arr_addr; data_words = !next - base }

let compile ?(chan_ports = []) (p : B.proc) =
  let lay = layout_of p in
  (* variables can also appear first on the left-hand side of assignments
     inside generated code paths not covered by vars_of; vars_of already
     collects all, so lookup failures are internal errors. *)
  let var_addr v =
    match List.assoc_opt v lay.var_addr with
    | Some a -> a
    | None -> invalid_arg ("Codegen: unknown variable " ^ v)
  in
  let arr_addr a =
    match List.assoc_opt a lay.arr_addr with
    | Some x -> x
    | None -> invalid_arg ("Codegen: unknown array " ^ a)
  in
  let chan_port c =
    match List.assoc_opt c chan_ports with
    | Some p -> p
    | None -> invalid_arg ("Codegen: no port mapping for channel " ^ c)
  in
  let arr_len a =
    match List.assoc_opt a p.B.arrays with
    | Some len -> len
    | None -> invalid_arg ("Codegen: unknown array " ^ a)
  in
  let items = ref [] in
  let emit i = items := Asm.Ins i :: !items in
  let label l = items := Asm.Label l :: !items in
  let next_label = ref 0 in
  let fresh prefix =
    incr next_label;
    Printf.sprintf "%s_%d" prefix !next_label
  in
  (* Clamp the index in [r] into [0, len-1], matching the interpreter's
     protected-mode array accesses. *)
  let clamp_reg r len =
    let lpos = fresh "clamp" and lok = fresh "clamp" in
    emit (Isa.B (Isa.Ge, r, 0, lpos));
    emit (Isa.Li (r, 0));
    label lpos;
    emit (Isa.Li (clamp_scratch, len));
    emit (Isa.B (Isa.Lt, r, clamp_scratch, lok));
    emit (Isa.Li (r, len - 1));
    label lok
  in
  let provably_in_bounds renv idx len =
    match range renv idx with
    | Some (l, h) -> l >= 0 && h < len
    | None -> false
  in
  (* Evaluate the index of array [a] into the register for stack [level],
     clamped into bounds; constant indices clamp at compile time and
     proven-in-bounds indices skip the runtime clamp. *)
  let rec index_expr renv level a idx =
    let rd = stack_base + level in
    let len = arr_len a in
    match const_eval idx with
    | Some i ->
        if rd > stack_top then
          invalid_arg "Codegen: expression too deep for register stack";
        emit (Isa.Li (rd, B.clamp_index len i))
    | None ->
        expr renv level idx;
        if not (provably_in_bounds renv idx len) then clamp_reg rd len
  (* Evaluate [e] into the register for stack [level]. *)
  and expr renv level (e : B.expr) =
    let rd = stack_base + level in
    if rd > stack_top then
      invalid_arg "Codegen: expression too deep for register stack";
    (match e with
    | B.Int i -> emit (Isa.Li (rd, i))
    | B.Var v -> emit (Isa.Lw (rd, 0, var_addr v))
    | B.Idx (a, idx) ->
        index_expr renv level a idx;
        (* rd holds the (clamped) index; add array base, then load *)
        emit (Isa.Alui (Isa.Add, rd, rd, arr_addr a));
        emit (Isa.Lw (rd, rd, 0))
    | B.Neg e ->
        expr renv level e;
        emit (Isa.Alu (Isa.Sub, rd, 0, rd))
    | B.Not e ->
        expr renv level e;
        emit (Isa.Alui (Isa.Seq, rd, rd, 0))
    | B.Ext (op, acc, a, b) ->
        expr renv level acc;
        expr renv (level + 1) a;
        expr renv (level + 2) b;
        if rd + 2 > stack_top then
          invalid_arg "Codegen: expression too deep for register stack";
        emit (Isa.Custom (op, rd, rd + 1, rd + 2))
    | B.Bin (op, a, b) -> (
        expr renv level a;
        expr renv (level + 1) b;
        let rs = rd + 1 in
        if rs > stack_top then
          invalid_arg "Codegen: expression too deep for register stack";
        let simple o = emit (Isa.Alu (o, rd, rd, rs)) in
        match op with
        | B.Add -> simple Isa.Add
        | B.Sub -> simple Isa.Sub
        | B.Mul -> simple Isa.Mul
        | B.Div -> simple Isa.Div
        | B.Rem -> simple Isa.Rem
        | B.And -> simple Isa.And
        | B.Or -> simple Isa.Or
        | B.Xor -> simple Isa.Xor
        | B.Shl -> simple Isa.Shl
        | B.Shr -> simple Isa.Shr
        | B.Lt -> simple Isa.Slt
        | B.Eq -> simple Isa.Seq
        | B.Le ->
            (* a <= b == !(b < a) *)
            emit (Isa.Alu (Isa.Slt, rd, rs, rd));
            emit (Isa.Alui (Isa.Seq, rd, rd, 0))
        | B.Ne ->
            emit (Isa.Alu (Isa.Seq, rd, rd, rs));
            emit (Isa.Alui (Isa.Seq, rd, rd, 0))))
  in
  let store_var v level = emit (Isa.Sw (stack_base + level, 0, var_addr v)) in
  (* [renv] maps induction variables to known value ranges; [fdepth]
     counts enclosing dynamically-bounded for loops (their hoisted
     bounds live in r1..r6). *)
  let rec stmt renv fdepth (s : B.stmt) =
    match s with
    | B.Assign (v, e) ->
        expr renv 0 e;
        store_var v 0
    | B.Store (a, i, e) ->
        index_expr renv 0 a i;
        expr renv 1 e;
        emit (Isa.Alui (Isa.Add, stack_base, stack_base, arr_addr a));
        emit (Isa.Sw (stack_base + 1, stack_base, 0))
    | B.If (c, t, []) ->
        let lend = fresh "endif" in
        expr renv 0 c;
        emit (Isa.B (Isa.Eq, stack_base, 0, lend));
        List.iter (stmt renv fdepth) t;
        label lend
    | B.If (c, t, e) ->
        let lelse = fresh "else" and lend = fresh "endif" in
        expr renv 0 c;
        emit (Isa.B (Isa.Eq, stack_base, 0, lelse));
        List.iter (stmt renv fdepth) t;
        emit (Isa.J lend);
        label lelse;
        List.iter (stmt renv fdepth) e;
        label lend
    | B.While (c, body, _) ->
        let lhead = fresh "while" and lend = fresh "endwhile" in
        label lhead;
        expr renv 0 c;
        emit (Isa.B (Isa.Eq, stack_base, 0, lend));
        List.iter (stmt renv fdepth) body;
        emit (Isa.J lhead);
        label lend
    | B.For (v, lo, hi, body) ->
        let lhead = fresh "for" and lend = fresh "endfor" in
        (* The interpreter evaluates the bound once, before the loop;
           a non-constant bound is hoisted into a dedicated register so
           body writes to its variables cannot re-bound the loop. *)
        let bound =
          match const_eval hi with
          | Some h -> `Const h
          | None ->
              let breg = bound_base + fdepth in
              if breg > bound_top then
                invalid_arg
                  "Codegen: dynamically-bounded for loops nest too deep";
              expr renv 0 hi;
              emit (Isa.Alu (Isa.Add, breg, stack_base, 0));
              `Reg breg
        in
        expr renv 0 lo;
        (* r8 carries the candidate induction value; like the
           interpreter, the variable itself is only written at the top
           of iterations that actually run, so the final increment never
           leaks into it. *)
        label lhead;
        (match bound with
        | `Const h -> emit (Isa.Li (stack_base + 1, h))
        | `Reg breg -> emit (Isa.Alu (Isa.Add, stack_base + 1, breg, 0)));
        (* exit when v >= hi *)
        emit (Isa.B (Isa.Ge, stack_base, stack_base + 1, lend));
        store_var v 0;
        let renv' =
          let renv = List.remove_assoc v renv in
          match (const_eval lo, const_eval hi) with
          | Some l, Some h
            when h > l && not (List.exists (assigns_var v) body) ->
              (v, (l, h - 1)) :: renv
          | _ -> renv
        in
        let fdepth' =
          match bound with `Const _ -> fdepth | `Reg _ -> fdepth + 1
        in
        List.iter (stmt renv' fdepth') body;
        emit (Isa.Lw (stack_base, 0, var_addr v));
        emit (Isa.Alui (Isa.Add, stack_base, stack_base, 1));
        emit (Isa.J lhead);
        label lend
    | B.PortOut (port, e) ->
        expr renv 0 e;
        emit (Isa.Out (port, stack_base))
    | B.PortIn (v, port) ->
        emit (Isa.In (stack_base, port));
        store_var v 0
    | B.Send (ch, e) ->
        expr renv 0 e;
        emit (Isa.Out (chan_port ch, stack_base))
    | B.Recv (v, ch) ->
        emit (Isa.In (stack_base, chan_port ch));
        store_var v 0
  in
  List.iter (stmt [] 0) p.B.body;
  emit Isa.Halt;
  (List.rev !items, lay)

let resolve lay bindings =
  List.filter_map
    (fun (k, v) ->
      match String.index_opt k '[' with
      | None -> (
          match List.assoc_opt k lay.var_addr with
          | Some a -> Some (a, v)
          | None -> None (* tolerate extra bindings, like Behavior.run *))
      | Some i -> (
          let name = String.sub k 0 i in
          let idx =
            int_of_string (String.sub k (i + 1) (String.length k - i - 2))
          in
          match List.assoc_opt name lay.arr_addr with
          | Some a -> Some (a + idx, v)
          | None -> invalid_arg ("Codegen.bind: unknown array " ^ name)))
    bindings

let bind lay cpu bindings =
  List.iter (fun (a, v) -> Cpu.write_mem cpu a v) (resolve lay bindings)

let result lay cpu v =
  match List.assoc_opt v lay.var_addr with
  | Some a -> Cpu.read_mem cpu a
  | None -> invalid_arg ("Codegen.result: unknown variable " ^ v)

exception Trapped of { proc : string; pc : int; msg : string }

let () =
  Printexc.register_printer (function
    | Trapped { proc; pc; msg } ->
        Some
          (Printf.sprintf "Codegen.Trapped(proc %S, pc %d): %s" proc pc msg)
    | _ -> None)

let run_compiled ?(env = Cpu.default_env) (p : B.proc) bindings =
  let items, lay = compile p in
  let img = Asm.assemble items in
  let cpu = Cpu.create ~env img.Asm.code in
  bind lay cpu bindings;
  (match Cpu.run cpu with
  | Cpu.Halted -> ()
  | Cpu.Trapped msg ->
      raise (Trapped { proc = p.B.name; pc = Cpu.pc cpu; msg })
  | Cpu.Running -> assert false);
  (List.map (fun v -> (v, result lay cpu v)) p.B.results, cpu)
