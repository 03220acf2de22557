module C = Codesign_ir.Cdfg

let fu_area = function
  | "add" | "sub" -> 32
  | "mul" -> 320
  | "div" | "rem" -> 960
  | "and" | "or" | "xor" -> 16
  | "shl" | "shr" -> 48
  | "lt" | "eq" -> 24
  | "neg" -> 32
  | "not" -> 8
  | "ld" | "st" -> 64
  | _ -> 32

let fu_delay = function
  | "mul" -> 2
  | "div" | "rem" -> 8
  | "ld" | "st" -> 2
  | _ -> 1

let hw_op_delay op = fu_delay (C.opcode_name op)

(* a unit is time-multiplexed this many times per invocation *)
let reuse_factor = 4

(* per-task controller and wiring overhead *)
let task_overhead = 64

let fu_need ops =
  (* merge duplicate kinds first *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, n) ->
      if n < 0 then invalid_arg "Estimate: negative op count";
      Hashtbl.replace tbl k (n + try Hashtbl.find tbl k with Not_found -> 0))
    ops;
  Hashtbl.fold
    (fun k n acc ->
      if n = 0 then acc
      else (k, (n + reuse_factor - 1) / reuse_factor) :: acc)
    tbl []
  |> List.sort compare

let standalone_area ops =
  List.fold_left
    (fun acc (k, units) -> acc + (units * fu_area k))
    task_overhead (fu_need ops)

module Incremental = struct
  type t = {
    tasks : (int, (string * int) list) Hashtbl.t;  (** id -> needs *)
    alloc : (string, int) Hashtbl.t;  (** kind -> allocated units *)
  }

  let create () = { tasks = Hashtbl.create 16; alloc = Hashtbl.create 16 }

  let alloc_of t k = try Hashtbl.find t.alloc k with Not_found -> 0

  let incremental_cost t ops =
    let needs = fu_need ops in
    List.fold_left
      (fun acc (k, n) ->
        let extra = max 0 (n - alloc_of t k) in
        acc + (extra * fu_area k))
      task_overhead needs

  let add t ~id ops =
    if Hashtbl.mem t.tasks id then
      invalid_arg
        (Printf.sprintf "Estimate.Incremental.add: duplicate id %d" id);
    let needs = fu_need ops in
    let cost = incremental_cost t ops in
    List.iter
      (fun (k, n) ->
        if n > alloc_of t k then Hashtbl.replace t.alloc k n)
      needs;
    Hashtbl.replace t.tasks id needs;
    cost

  let rebuild_alloc t =
    Hashtbl.reset t.alloc;
    Hashtbl.iter
      (fun _ needs ->
        List.iter
          (fun (k, n) ->
            if n > alloc_of t k then Hashtbl.replace t.alloc k n)
          needs)
      t.tasks

  let remove t ~id =
    if not (Hashtbl.mem t.tasks id) then
      invalid_arg
        (Printf.sprintf "Estimate.Incremental.remove: unknown id %d" id);
    Hashtbl.remove t.tasks id;
    rebuild_alloc t

  let mem t ~id = Hashtbl.mem t.tasks id

  let total_area t =
    let fu =
      Hashtbl.fold (fun k n acc -> acc + (n * fu_area k)) t.alloc 0
    in
    fu + (task_overhead * Hashtbl.length t.tasks)

  let allocation t =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.alloc []
    |> List.sort compare

  let resident t =
    Hashtbl.fold (fun id _ acc -> id :: acc) t.tasks [] |> List.sort compare
end
