type task = {
  id : int;
  name : string;
  sw_cycles : int;
  hw_cycles : int;
  hw_area : int;
  sw_bytes : int;
  parallelism : float;
  modifiable : bool;
  ops : (string * int) list;
}

type edge = { src : int; dst : int; words : int }

type t = {
  name : string;
  tasks : task array;
  edges : edge list;
  deadline : int;
}

let task ~id ~name ~sw_cycles ~hw_cycles ~hw_area ?sw_bytes
    ?(parallelism = 0.5) ?(modifiable = false) ?(ops = []) () =
  let sw_bytes = match sw_bytes with Some b -> b | None -> sw_cycles * 2 in
  { id; name; sw_cycles; hw_cycles; hw_area; sw_bytes; parallelism;
    modifiable; ops }

let make ?(name = "tg") ?(deadline = 0) tasks edges =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  Array.iteri
    (fun i t ->
      if t.id <> i then
        invalid_arg
          (Printf.sprintf "Task_graph.make: task %s has id %d at index %d"
             t.name t.id i))
    tasks;
  List.iter
    (fun e ->
      if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
        invalid_arg "Task_graph.make: edge endpoint out of range";
      if e.src = e.dst then invalid_arg "Task_graph.make: self-loop edge";
      if e.words < 0 then invalid_arg "Task_graph.make: negative edge volume")
    edges;
  let g =
    Graph_algo.create ~n ~edges:(List.map (fun e -> (e.src, e.dst)) edges)
  in
  if not (Graph_algo.is_dag g) then
    invalid_arg "Task_graph.make: edge relation is cyclic";
  { name; tasks; edges; deadline }

let n_tasks g = Array.length g.tasks

let graph g =
  Graph_algo.create ~n:(n_tasks g)
    ~edges:(List.map (fun e -> (e.src, e.dst)) g.edges)

let in_edges g i = List.filter (fun e -> e.dst = i) g.edges

let topo_order g =
  match Graph_algo.topo_sort (graph g) with
  | Some o -> o
  | None -> assert false (* validated in make *)

let sw_critical_path g =
  if n_tasks g = 0 then 0
  else
    let _, w =
      Graph_algo.critical_path (graph g) ~weight:(fun i ->
          g.tasks.(i).sw_cycles)
    in
    w

let total_sw_cycles g =
  Array.fold_left (fun acc t -> acc + t.sw_cycles) 0 g.tasks

let total_hw_area g =
  Array.fold_left (fun acc t -> acc + t.hw_area) 0 g.tasks

let scale_deadline g f =
  let cp = float_of_int (sw_critical_path g) in
  { g with deadline = int_of_float (cp *. f +. 0.5) }

let pp fmt g =
  Format.fprintf fmt
    "@[<v>task graph %s: %d tasks, %d edges, deadline=%d@,\
     sw total=%d cycles, sw critical path=%d, hw area (standalone)=%d@]"
    g.name (n_tasks g) (List.length g.edges) g.deadline
    (total_sw_cycles g) (sw_critical_path g) (total_hw_area g)
