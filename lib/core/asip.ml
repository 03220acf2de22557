module B = Codesign_ir.Behavior
module Cpu = Codesign_isa.Cpu
module Codegen = Codesign_isa.Codegen

type pattern = {
  pid : int;
  pname : string;
  semantics : int -> int -> int -> int;
  area : int;
  latency : int;
  sw_cycles : int;
}

(* Matcher: if the expression is an instance of the pattern, return the
   (acc, a, b) operand sub-expressions. *)
let match_pattern pid (e : B.expr) : (B.expr * B.expr * B.expr) option =
  match (pid, e) with
  | 0, B.Bin (B.Add, x, B.Bin (B.Mul, a, b))
  | 0, B.Bin (B.Add, B.Bin (B.Mul, a, b), x) ->
      Some (x, a, b)
  | 1, B.Bin (B.Sub, x, B.Bin (B.Mul, a, b)) -> Some (x, a, b)
  | 2, B.Bin (B.Add, B.Bin (B.Add, x, a), b) -> Some (x, a, b)
  | 3, B.Bin (B.Add, x, B.Bin (B.Shl, a, b))
  | 3, B.Bin (B.Add, B.Bin (B.Shl, a, b), x) ->
      Some (x, a, b)
  | 4, B.Bin (B.Shr, B.Bin (B.Mul, a, b), k) -> Some (k, a, b)
  | 5, B.Bin (B.Xor, B.Bin (B.Shr, x, B.Int 1), B.Bin (B.And, a, b)) ->
      (* CRC step: (x >> 1) ^ (a & b) *)
      Some (x, a, b)
  | 6, B.Neg (B.Bin (B.And, a, b)) ->
      (* mask generation: -(a & b) *)
      Some (B.Int 0, a, b)
  | 7, B.Bin (B.Xor, x, B.Bin (B.And, a, b))
  | 7, B.Bin (B.Xor, B.Bin (B.And, a, b), x) ->
      Some (x, a, b)
  | _ -> None

let patterns =
  [
    {
      pid = 0;
      pname = "mac";
      semantics = (fun acc a b -> acc + (a * b));
      area = 352;
      latency = 2;
      sw_cycles = 4;
    };
    {
      pid = 1;
      pname = "msub";
      semantics = (fun acc a b -> acc - (a * b));
      area = 352;
      latency = 2;
      sw_cycles = 4;
    };
    {
      pid = 2;
      pname = "add3";
      semantics = (fun acc a b -> acc + a + b);
      area = 64;
      latency = 1;
      sw_cycles = 2;
    };
    {
      pid = 3;
      pname = "shladd";
      semantics = (fun acc a b -> acc + (a lsl (b land 31)));
      area = 80;
      latency = 1;
      sw_cycles = 2;
    };
    {
      pid = 4;
      pname = "mulshr";
      semantics = (fun k a b -> (a * b) asr (k land 31));
      area = 368;
      latency = 2;
      sw_cycles = 4;
    };
    {
      pid = 5;
      pname = "crcstep";
      semantics = (fun x a b -> (x asr 1) lxor (a land b));
      area = 72;
      latency = 1;
      sw_cycles = 3;
    };
    {
      pid = 6;
      pname = "negand";
      semantics = (fun _ a b -> -(a land b));
      area = 48;
      latency = 1;
      sw_cycles = 2;
    };
    {
      pid = 7;
      pname = "andxor";
      semantics = (fun x a b -> x lxor (a land b));
      area = 32;
      latency = 1;
      sw_cycles = 2;
    };
  ]

(* Bottom-up rewrite of one expression with an ordered pattern list. *)
let rec rewrite_expr pats (e : B.expr) : B.expr =
  let e =
    match e with
    | B.Int _ | B.Var _ -> e
    (* Address computations stay on the base ALU: the extension FUs
       model datapath operators, and an opaque [Ext] inside an array
       index defeats the code generator's bounds analysis, forcing a
       runtime clamp that costs more than the fused op saves. *)
    | B.Idx (_, _) -> e
    | B.Bin (op, a, b) -> B.Bin (op, rewrite_expr pats a, rewrite_expr pats b)
    | B.Neg a -> B.Neg (rewrite_expr pats a)
    | B.Not a -> B.Not (rewrite_expr pats a)
    | B.Ext (op, x, a, b) ->
        B.Ext (op, rewrite_expr pats x, rewrite_expr pats a,
               rewrite_expr pats b)
  in
  let rec try_patterns = function
    | [] -> e
    | p :: rest -> (
        match match_pattern p.pid e with
        | Some (x, a, b) -> B.Ext (p.pid, x, a, b)
        | None -> try_patterns rest)
  in
  try_patterns pats

let rec rewrite_stmt pats (s : B.stmt) : B.stmt =
  let re = rewrite_expr pats in
  match s with
  | B.Assign (v, e) -> B.Assign (v, re e)
  | B.Store (a, i, e) -> B.Store (a, i, re e) (* index: see rewrite_expr *)
  | B.If (c, t, f) ->
      B.If (re c, List.map (rewrite_stmt pats) t, List.map (rewrite_stmt pats) f)
  | B.While (c, body, k) -> B.While (re c, List.map (rewrite_stmt pats) body, k)
  | B.For (v, lo, hi, body) ->
      B.For (v, re lo, re hi, List.map (rewrite_stmt pats) body)
  | B.PortOut (p, e) -> B.PortOut (p, re e)
  | B.PortIn _ | B.Recv _ -> s
  | B.Send (c, e) -> B.Send (c, re e)

let rewrite (proc : B.proc) pats =
  { proc with B.body = List.map (rewrite_stmt pats) proc.B.body }

(* Trip-weighted Ext counts after a single-pattern rewrite. *)
let occurrences proc =
  List.filter_map
    (fun p ->
      let rewritten = rewrite proc [ p ] in
      let count = ref 0 in
      let rec expr trip (e : B.expr) =
        match e with
        | B.Int _ | B.Var _ -> ()
        | B.Idx (_, i) -> expr trip i
        | B.Bin (_, a, b) ->
            expr trip a;
            expr trip b
        | B.Neg a | B.Not a -> expr trip a
        | B.Ext (pid, x, a, b) ->
            if pid = p.pid then count := !count + trip;
            expr trip x;
            expr trip a;
            expr trip b
      in
      let rec stmt trip (s : B.stmt) =
        match s with
        | B.Assign (_, e) | B.PortOut (_, e) | B.Send (_, e) -> expr trip e
        | B.Store (_, i, e) ->
            expr trip i;
            expr trip e
        | B.If (c, t, f) ->
            expr trip c;
            List.iter (stmt trip) t;
            List.iter (stmt trip) f
        | B.While (c, body, k) ->
            expr trip c;
            List.iter (stmt (trip * max k 1)) body
        | B.For (v, lo, hi, body) ->
            ignore v;
            expr trip lo;
            expr trip hi;
            let k =
              match (lo, hi) with
              | B.Int l, B.Int h -> max (h - l) 1
              | _ -> 8
            in
            List.iter (stmt (trip * k)) body
        | B.PortIn _ | B.Recv _ -> ()
      in
      List.iter (stmt 1) rewritten.B.body;
      if !count > 0 then Some (p, !count) else None)
    patterns

let select ~budget occs =
  if budget < 0 then invalid_arg "Asip.select: negative budget";
  (* 0/1 knapsack over patterns: value = cycles saved, weight = area *)
  let items =
    List.map
      (fun (p, n) -> (p, n * max 0 (p.sw_cycles - p.latency), p.area))
      occs
    |> List.filter (fun (_, v, _) -> v > 0)
  in
  let n = List.length items in
  let arr = Array.of_list items in
  (* DP over budget *)
  let best = Array.make (budget + 1) 0 in
  let take = Array.make_matrix n (budget + 1) false in
  Array.iteri
    (fun i (_, v, w) ->
      for b = budget downto w do
        if best.(b - w) + v > best.(b) then begin
          best.(b) <- best.(b - w) + v;
          take.(i).(b) <- true
        end
      done)
    arr;
  (* reconstruct *)
  let selected = ref [] in
  let b = ref budget in
  for i = n - 1 downto 0 do
    if take.(i).(!b) then begin
      let p, _, w = arr.(i) in
      selected := p :: !selected;
      b := !b - w
    end
  done;
  !selected

let ext_evaluator pats ext acc a b =
  match List.find_opt (fun p -> p.pid = ext) pats with
  | Some p -> p.semantics acc a b
  | None ->
      invalid_arg (Printf.sprintf "Asip: extension opcode %d not selected" ext)

type report = {
  selected : pattern list;
  occurrence_counts : (string * int) list;
  fu_area : int;
  base_cycles : int;
  asip_cycles : int;
  speedup : float;
  verified : bool;
}

let measure ?(env = Cpu.default_env) proc bindings =
  let results, cpu = Codegen.run_compiled ~env proc bindings in
  (results, Cpu.cycles cpu)

let design ?(budget = 800) proc bindings =
  let occs = occurrences proc in
  let selected = select ~budget occs in
  let base_results, base_cycles = measure proc bindings in
  let rewritten = rewrite proc selected in
  let env =
    {
      Cpu.default_env with
      Cpu.custom = ext_evaluator selected;
      custom_latency =
        (fun ext ->
          match List.find_opt (fun p -> p.pid = ext) selected with
          | Some p -> p.latency
          | None -> 1);
    }
  in
  let asip_results, asip_cycles = measure ~env rewritten bindings in
  {
    selected;
    occurrence_counts = List.map (fun (p, n) -> (p.pname, n)) occs;
    fu_area = List.fold_left (fun acc p -> acc + p.area) 0 selected;
    base_cycles;
    asip_cycles;
    speedup =
      (if asip_cycles = 0 then 1.0
       else float_of_int base_cycles /. float_of_int asip_cycles);
    verified = base_results = asip_results;
  }

module Reconfig = struct
  type outcome = {
    static_cycles : int;
    dynamic_cycles : int;
    reconfigurations : int;
    static_set : string list;
    winner : string;
  }

  (* cycles of one app under a fixed pattern set *)
  let cycles_with pats (proc, bindings) =
    let rewritten = rewrite proc pats in
    let env =
      {
        Cpu.default_env with
        Cpu.custom = ext_evaluator pats;
        custom_latency =
          (fun ext ->
            match List.find_opt (fun p -> p.pid = ext) pats with
            | Some p -> p.latency
            | None -> 1);
      }
    in
    snd (measure ~env rewritten bindings)

  let best_set capacity app =
    let proc, _ = app in
    select ~budget:capacity (occurrences proc)

  let compare ?(capacity = 800) ?(reconfig_cost = 2000) apps =
    if apps = [] then invalid_arg "Asip.Reconfig.compare: no applications";
    (* static: select on the merged occurrence profile *)
    let merged = Hashtbl.create 8 in
    List.iter
      (fun (proc, _) ->
        List.iter
          (fun (p, n) ->
            let cur =
              try Hashtbl.find merged p.pid with Not_found -> (p, 0)
            in
            Hashtbl.replace merged p.pid (p, snd cur + n))
          (occurrences proc))
      apps;
    let merged_occs = Hashtbl.fold (fun _ pn acc -> pn :: acc) merged [] in
    let merged_occs =
      List.sort (fun (a, _) (b, _) -> compare a.pid b.pid) merged_occs
    in
    let static_set = select ~budget:capacity merged_occs in
    let static_cycles =
      List.fold_left (fun acc app -> acc + cycles_with static_set app) 0 apps
    in
    (* dynamic: per-app best set, reconfiguring when it changes *)
    let sets = List.map (best_set capacity) apps in
    let ids set = List.sort compare (List.map (fun p -> p.pid) set) in
    (* the initial configuration load is free (both static and dynamic
       systems power up configured); only changes between consecutive
       applications count *)
    let reconfigurations =
      match sets with
      | [] -> 0
      | first :: _ ->
          let rec count prev = function
            | [] -> 0
            | s :: rest ->
                (if ids s <> prev && ids s <> [] then 1 else 0)
                + count (if ids s = [] then prev else ids s) rest
          in
          count (ids first) sets
    in
    let dynamic_cycles =
      List.fold_left2
        (fun acc app set -> acc + cycles_with set app)
        0 apps sets
      + (reconfigurations * reconfig_cost)
    in
    {
      static_cycles;
      dynamic_cycles;
      reconfigurations;
      static_set = List.map (fun p -> p.pname) static_set;
      winner =
        (if dynamic_cycles < static_cycles then "dynamic" else "static");
    }
end
