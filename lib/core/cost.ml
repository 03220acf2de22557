module T = Codesign_ir.Task_graph
module E = Codesign_rtl.Estimate

type partition = bool array

type params = { comm_cycles_per_word : int; sharing : bool }

let default_params = { comm_cycles_per_word = 4; sharing = true }

type eval = {
  latency : int;
  all_sw_latency : int;
  speedup : float;
  hw_area : int;
  sw_bytes : int;
  comm_words : int;
  n_hw : int;
  meets_deadline : bool;
  modifiable_in_hw : int;
}

let all_sw g = Array.make (T.n_tasks g) false
let all_hw g = Array.make (T.n_tasks g) true

(* A highly parallel task realises its full hardware speedup; a serial
   one gains little over software beyond instruction overhead. *)
let hw_task_cycles (t : T.task) =
  let base = float_of_int t.T.hw_cycles in
  let serial_penalty =
    float_of_int (t.T.sw_cycles - t.T.hw_cycles)
    *. (1.0 -. t.T.parallelism) *. 0.5
  in
  max 1 (int_of_float (base +. serial_penalty))

(* Deterministic list schedule: one CPU, hardware tasks concurrent,
   communication charged on boundary-crossing edges.  Priority is
   critical-path length (software weights), ties by id. *)
let schedule_latency params g (p : partition) =
  let n = T.n_tasks g in
  if n = 0 then 0
  else begin
    let graph = T.graph g in
    let prio =
      (* longest path to a sink, in software cycles *)
      let rev_dist = Array.make n 0 in
      let order = List.rev (T.topo_order g) in
      List.iter
        (fun u ->
          let best =
            List.fold_left
              (fun acc v -> max acc rev_dist.(v))
              0
              (Codesign_ir.Graph_algo.succ graph u)
          in
          rev_dist.(u) <- best + g.T.tasks.(u).T.sw_cycles)
        order;
      rev_dist
    in
    let exec i =
      if p.(i) then hw_task_cycles g.T.tasks.(i)
      else g.T.tasks.(i).T.sw_cycles
    in
    let finish = Array.make n (-1) in
    let scheduled = Array.make n false in
    let cpu_free = ref 0 in
    let n_done = ref 0 in
    while !n_done < n do
      (* data-ready time of each unscheduled task whose preds are done *)
      let candidates =
        List.filter_map
          (fun i ->
            if scheduled.(i) then None
            else
              let preds = T.in_edges g i in
              if
                List.for_all (fun (e : T.edge) -> scheduled.(e.src)) preds
              then begin
                let ready =
                  List.fold_left
                    (fun acc (e : T.edge) ->
                      let comm =
                        if p.(e.src) <> p.(i) then
                          e.words * params.comm_cycles_per_word
                        else 0
                      in
                      max acc (finish.(e.src) + comm))
                    0 preds
                in
                Some (i, ready)
              end
              else None)
          (List.init n Fun.id)
      in
      (* pick the highest-priority candidate, ties by smaller ready time
         then id *)
      let best =
        List.fold_left
          (fun acc (i, ready) ->
            match acc with
            | None -> Some (i, ready)
            | Some (j, rj) ->
                if
                  prio.(i) > prio.(j)
                  || (prio.(i) = prio.(j) && (ready, i) < (rj, j))
                then Some (i, ready)
                else acc)
          None candidates
      in
      match best with
      | None -> assert false (* DAG: always a ready candidate *)
      | Some (i, ready) ->
          let start = if p.(i) then ready else max ready !cpu_free in
          let f = start + exec i in
          finish.(i) <- f;
          scheduled.(i) <- true;
          incr n_done;
          if not p.(i) then cpu_free := f
    done;
    Array.fold_left max 0 finish
  end

let area_of_partition ?(params = default_params) g (p : partition) =
  if params.sharing then begin
    let inc = E.Incremental.create () in
    Array.iteri
      (fun i (t : T.task) ->
        if p.(i) then
          ignore
            (E.Incremental.add inc ~id:i
               (if t.T.ops = [] then [ ("add", t.T.hw_area / 32) ]
                else t.T.ops)))
      g.T.tasks;
    E.Incremental.total_area inc
  end
  else
    Array.to_list g.T.tasks
    |> List.filteri (fun i _ -> p.(i))
    |> List.fold_left
         (fun acc (t : T.task) ->
           acc
           +
           if t.T.ops = [] then t.T.hw_area
           else E.standalone_area t.T.ops)
         0

let evaluate ?(params = default_params) g p =
  let n = T.n_tasks g in
  if Array.length p <> n then
    invalid_arg "Cost.evaluate: partition size mismatch";
  let latency = schedule_latency params g p in
  let all_sw_latency = schedule_latency params g (Array.make n false) in
  let hw_area = area_of_partition ~params g p in
  let sw_bytes =
    Array.to_list g.T.tasks
    |> List.filteri (fun i _ -> not p.(i))
    |> List.fold_left (fun acc (t : T.task) -> acc + t.T.sw_bytes) 0
  in
  let comm_words =
    List.fold_left
      (fun acc (e : T.edge) ->
        if p.(e.src) <> p.(e.dst) then acc + e.words else acc)
      0 g.T.edges
  in
  let n_hw = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 p in
  let modifiable_in_hw =
    let c = ref 0 in
    Array.iteri
      (fun i (t : T.task) -> if p.(i) && t.T.modifiable then incr c)
      g.T.tasks;
    !c
  in
  {
    latency;
    all_sw_latency;
    speedup =
      (if latency = 0 then 1.0
       else float_of_int all_sw_latency /. float_of_int latency);
    hw_area;
    sw_bytes;
    comm_words;
    n_hw;
    meets_deadline = g.T.deadline = 0 || latency <= g.T.deadline;
    modifiable_in_hw;
  }

(* Keep the terms and their order: objective values, and so the ties
   every search breaks on them, must stay bit-identical. *)
let objective g (e : eval) =
  let miss =
    if g.T.deadline > 0 then float_of_int (max 0 (e.latency - g.T.deadline))
    else 0.0
  in
  float_of_int e.hw_area
  +. (0.5 *. float_of_int e.latency)
  +. (1000.0 *. miss)
  +. (500.0 *. float_of_int e.modifiable_in_hw)
  +. (0.01 *. float_of_int e.sw_bytes)
