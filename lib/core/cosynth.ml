module T = Codesign_ir.Task_graph

type pe_type = { pt_name : string; price : int }

type interconnect = Point_to_point | Shared_bus

type problem = {
  tg : T.t;
  pe_types : pe_type list;
  exec : int array array;
  comm_cycles_per_word : int;
  interconnect : interconnect;
}

(* instance bound per PE type, which keeps SOS finite *)
let max_copies = 4

let problem ?(comm_cycles_per_word = 2) ?(interconnect = Point_to_point) tg
    pe_types ~exec =
  let n = T.n_tasks tg and k = List.length pe_types in
  if k = 0 then invalid_arg "Cosynth.problem: empty PE library";
  if Array.length exec <> n then
    invalid_arg "Cosynth.problem: exec rows <> task count";
  Array.iter
    (fun row ->
      if Array.length row <> k then
        invalid_arg "Cosynth.problem: exec columns <> PE type count";
      Array.iter
        (fun c ->
          if c <= 0 then
            invalid_arg "Cosynth.problem: non-positive execution time")
        row)
    exec;
  List.iter
    (fun p ->
      if p.price <= 0 then
        invalid_arg "Cosynth.problem: non-positive PE price")
    pe_types;
  { tg; pe_types; exec; comm_cycles_per_word; interconnect }

type solution = {
  pe_set : int list;
  mapping : int array;
  price : int;
  makespan : int;
  feasible : bool;
  nodes : int;
  algorithm : string;
}

let price_of pb pe_set =
  List.fold_left
    (fun acc t -> acc + (List.nth pb.pe_types t).price)
    0 pe_set

(* Deterministic list schedule of (possibly a prefix of) the tasks onto
   the instance set.  mapping.(i) = -1 means "not yet assigned" and the
   task is skipped (used for branch-and-bound prefix bounds; legal
   because assignment follows topological order). *)
let makespan_partial pb ~pe_set ~mapping =
  let insts = Array.of_list pe_set in
  let free = Array.make (Array.length insts) 0 in
  let finish = Array.make (T.n_tasks pb.tg) 0 in
  let order = T.topo_order pb.tg in
  let span = ref 0 in
  (* under a shared interconnect, inter-PE transfers serialise on one
     medium (Fig. 5's interconnection network); point-to-point links
     only delay their own consumer *)
  let bus_free = ref 0 in
  List.iter
    (fun i ->
      let inst = mapping.(i) in
      if inst >= 0 then begin
        let ready =
          List.fold_left
            (fun acc (e : T.edge) ->
              if mapping.(e.src) < 0 then acc
              else if mapping.(e.src) = inst then
                max acc finish.(e.src)
              else begin
                let cost = e.words * pb.comm_cycles_per_word in
                match pb.interconnect with
                | Point_to_point -> max acc (finish.(e.src) + cost)
                | Shared_bus ->
                    let xfer_start = max finish.(e.src) !bus_free in
                    bus_free := xfer_start + cost;
                    max acc !bus_free
              end)
            0 (T.in_edges pb.tg i)
        in
        let start = max ready free.(inst) in
        let f = start + pb.exec.(i).(insts.(inst)) in
        finish.(i) <- f;
        free.(inst) <- f;
        if f > !span then span := f
      end)
    order;
  !span

let makespan pb ~pe_set ~mapping = makespan_partial pb ~pe_set ~mapping

let deadline_of pb =
  if pb.tg.T.deadline > 0 then pb.tg.T.deadline else max_int

let solution_of pb ~pe_set ~mapping ~nodes ~algorithm =
  let ms = makespan pb ~pe_set ~mapping in
  {
    pe_set;
    mapping;
    price = price_of pb pe_set;
    makespan = ms;
    feasible = ms <= deadline_of pb;
    nodes;
    algorithm;
  }

(* ------------------------------------------------------------------ *)
(* SOS: exact branch and bound                                         *)
(* ------------------------------------------------------------------ *)

let node_budget = 2_000_000

let sos pb =
  let n = T.n_tasks pb.tg in
  let k = List.length pb.pe_types in
  let order = Array.of_list (T.topo_order pb.tg) in
  let deadline = deadline_of pb in
  let mapping = Array.make n (-1) in
  let insts = ref [] (* reversed *) in
  let copies = Array.make k 0 in
  let best_price = ref max_int in
  let best : solution option ref = ref None in
  let nodes = ref 0 in
  let rec branch depth cur_price =
    if !nodes >= node_budget then ()
    else begin
      incr nodes;
      if cur_price >= !best_price then ()
      else if depth = n then begin
        let pe_set = List.rev !insts in
        let ms = makespan pb ~pe_set ~mapping in
        if ms <= deadline then begin
          best_price := cur_price;
          best :=
            Some
              {
                pe_set;
                mapping = Array.copy mapping;
                price = cur_price;
                makespan = ms;
                feasible = true;
                nodes = !nodes;
                algorithm = "sos";
              }
        end
      end
      else begin
        let task = order.(depth) in
        let pe_set = List.rev !insts in
        let n_inst = List.length pe_set in
        (* try existing instances *)
        for inst = 0 to n_inst - 1 do
          mapping.(task) <- inst;
          let ms = makespan_partial pb ~pe_set ~mapping in
          if ms <= deadline then branch (depth + 1) cur_price;
          mapping.(task) <- -1
        done;
        (* try one new instance of each type *)
        for t = 0 to k - 1 do
          if copies.(t) < max_copies then begin
            let price' = cur_price + (List.nth pb.pe_types t).price in
            if price' < !best_price then begin
              insts := t :: !insts;
              copies.(t) <- copies.(t) + 1;
              mapping.(task) <- n_inst;
              let pe_set' = List.rev !insts in
              let ms = makespan_partial pb ~pe_set:pe_set' ~mapping in
              if ms <= deadline then branch (depth + 1) price';
              mapping.(task) <- -1;
              copies.(t) <- copies.(t) - 1;
              insts := List.tl !insts
            end
          end
        done
      end
    end
  in
  branch 0 0;
  match !best with
  | Some s -> { s with nodes = !nodes }
  | None ->
      (* infeasible under the bounds: fall back to one instance of the
         fastest type to report something meaningful *)
      let fastest =
        let best_t = ref 0 and best_sum = ref max_int in
        for t = 0 to k - 1 do
          let sum = Array.fold_left (fun a row -> a + row.(t)) 0 pb.exec in
          if sum < !best_sum then begin
            best_sum := sum;
            best_t := t
          end
        done;
        !best_t
      in
      let mapping = Array.make n 0 in
      solution_of pb ~pe_set:[ fastest ] ~mapping ~nodes:!nodes
        ~algorithm:"sos"

(* ------------------------------------------------------------------ *)
(* Beck-style vector bin packing                                       *)
(* ------------------------------------------------------------------ *)

let binpack pb =
  let n = T.n_tasks pb.tg in
  let k = List.length pb.pe_types in
  let deadline = deadline_of pb in
  (* pack against 85% of the deadline: utilisation ignores precedence
     stalls and communication, so leave headroom *)
  let capacity =
    if deadline = max_int then T.total_sw_cycles pb.tg
    else deadline * 85 / 100
  in
  (* price per unit speed: prefer cheap types that still fit the task *)
  let type_order =
    List.init k Fun.id
    |> List.sort (fun a b ->
           compare (List.nth pb.pe_types a).price
             (List.nth pb.pe_types b).price)
  in
  (* tasks in decreasing max-utilisation order *)
  let tasks =
    List.init n Fun.id
    |> List.sort (fun a b ->
           let u i =
             Array.fold_left max 0 pb.exec.(i)
           in
           compare (u b) (u a))
  in
  let insts = ref [] in (* (type, load) list, in creation order *)
  let mapping = Array.make n (-1) in
  let nodes = ref 0 in
  List.iter
    (fun task ->
      incr nodes;
      (* first fit into an existing instance *)
      let placed = ref false in
      List.iteri
        (fun idx (t, load) ->
          if (not !placed) && load + pb.exec.(task).(t) <= capacity then begin
            mapping.(task) <- idx;
            insts :=
              List.mapi
                (fun j (t', l') ->
                  if j = idx then (t', l' + pb.exec.(task).(t)) else (t', l'))
                !insts;
            placed := true
          end)
        !insts;
      if not !placed then begin
        (* open the cheapest bin type the task fits in *)
        let t =
          match
            List.find_opt
              (fun t -> pb.exec.(task).(t) <= capacity)
              type_order
          with
          | Some t -> t
          | None ->
              (* nothing fits the deadline alone: use the fastest type *)
              List.fold_left
                (fun acc t ->
                  if pb.exec.(task).(t) < pb.exec.(task).(acc) then t
                  else acc)
                0 (List.init k Fun.id)
        in
        mapping.(task) <- List.length !insts;
        insts := !insts @ [ (t, pb.exec.(task).(t)) ]
      end)
    tasks;
  (* Repair loop: the utilisation model ignores precedence and
     communication, so verify with the real schedule.  While infeasible,
     first try upgrading the most loaded bin to a faster PE type (fixes
     critical-path-bound graphs); once every loaded bin runs the fastest
     type for its tasks, split the most loaded bin instead. *)
  let pe_set () = List.map fst !insts in
  let attempts = ref 0 in
  let current_ms = ref (makespan pb ~pe_set:(pe_set ()) ~mapping) in
  while !current_ms > deadline && !attempts < 3 * n do
    incr attempts;
    incr nodes;
    let loads = Array.make (List.length !insts) 0 in
    Array.iteri
      (fun task inst ->
        loads.(inst) <-
          loads.(inst) + pb.exec.(task).(List.nth (pe_set ()) inst))
      mapping;
    let worst = ref 0 in
    Array.iteri (fun i l -> if l > loads.(!worst) then worst := i) loads;
    let bin_type = List.nth (pe_set ()) !worst in
    (* load of the worst bin under an alternative type *)
    let load_under t =
      let sum = ref 0 in
      Array.iteri
        (fun task inst -> if inst = !worst then sum := !sum + pb.exec.(task).(t))
        mapping;
      !sum
    in
    let faster =
      List.init k Fun.id
      |> List.filter (fun t -> t <> bin_type && load_under t < load_under bin_type)
      |> List.sort (fun a b ->
             compare (List.nth pb.pe_types a).price
               (List.nth pb.pe_types b).price)
    in
    match faster with
    | t :: _ ->
        (* upgrade the bottleneck bin *)
        insts :=
          List.mapi
            (fun j (t', l') -> if j = !worst then (t, l') else (t', l'))
            !insts;
        current_ms := makespan pb ~pe_set:(pe_set ()) ~mapping
    | [] ->
        (* already the fastest: split out its largest task *)
        let victim = ref (-1) in
        Array.iteri
          (fun task inst ->
            if inst = !worst then
              match !victim with
              | -1 -> victim := task
              | v ->
                  if pb.exec.(task).(bin_type) > pb.exec.(v).(bin_type) then
                    victim := task)
          mapping;
        if !victim >= 0 && loads.(!worst) > 0 then begin
          mapping.(!victim) <- List.length !insts;
          insts := !insts @ [ (bin_type, pb.exec.(!victim).(bin_type)) ];
          current_ms := makespan pb ~pe_set:(pe_set ()) ~mapping
        end
        else attempts := 3 * n
  done;
  {
    (solution_of pb ~pe_set:(pe_set ()) ~mapping ~nodes:!nodes
       ~algorithm:"binpack")
    with
    nodes = !nodes;
  }

(* ------------------------------------------------------------------ *)
(* Yen-Wolf sensitivity-driven improvement                             *)
(* ------------------------------------------------------------------ *)

let sensitivity pb =
  let max_iters = 200 in
  let n = T.n_tasks pb.tg in
  let k = List.length pb.pe_types in
  let deadline = deadline_of pb in
  (* start: one instance of the cheapest type, everything mapped there *)
  let cheapest =
    List.init k Fun.id
    |> List.fold_left
         (fun acc t ->
           if (List.nth pb.pe_types t).price < (List.nth pb.pe_types acc).price
           then t
           else acc)
         0
  in
  let pe_set = ref [ cheapest ] in
  let mapping = Array.make n 0 in
  let nodes = ref 0 in
  let ms () = makespan pb ~pe_set:!pe_set ~mapping in
  let iter = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iter < max_iters do
    incr iter;
    let current = ms () in
    if current > deadline then begin
      (* infeasible: find the move with the best violation reduction per
         unit price.  Moves: (a) task to existing instance, (b) task to a
         fresh instance of any type. *)
      let best = ref None in
      let consider gain dprice apply =
        incr nodes;
        let ratio =
          float_of_int gain /. float_of_int (max dprice 1)
        in
        match !best with
        | Some (r, _, _) when r >= ratio -> ()
        | _ -> if gain > 0 then best := Some (ratio, dprice, apply)
      in
      for task = 0 to n - 1 do
        let old_inst = mapping.(task) in
        (* existing instances *)
        List.iteri
          (fun inst _ ->
            if inst <> old_inst then begin
              mapping.(task) <- inst;
              let m = ms () in
              mapping.(task) <- old_inst;
              consider (current - m) 0 (fun () -> mapping.(task) <- inst)
            end)
          !pe_set;
        (* fresh instance of each type *)
        for t = 0 to k - 1 do
          let count =
            List.length (List.filter (fun x -> x = t) !pe_set)
          in
          if count < max_copies then begin
            let inst = List.length !pe_set in
            pe_set := !pe_set @ [ t ];
            mapping.(task) <- inst;
            let m = ms () in
            mapping.(task) <- old_inst;
            pe_set := List.filteri (fun i _ -> i < inst) !pe_set;
            consider (current - m)
              (List.nth pb.pe_types t).price
              (fun () ->
                pe_set := !pe_set @ [ t ];
                mapping.(task) <- inst)
          end
        done
      done;
      match !best with
      | Some (_, _, apply) -> apply ()
      | None -> continue_ := false
    end
    else begin
      (* feasible: reclaim cost — drop empty instances, then try moving
         all tasks off the most expensive instance *)
      let used = Array.make (List.length !pe_set) false in
      Array.iter (fun i -> used.(i) <- true) mapping;
      let empty_exists = Array.exists not used in
      if empty_exists then begin
        (* compact: remove empty instances, remap indices *)
        let remap = Array.make (List.length !pe_set) (-1) in
        let new_set = ref [] and next = ref 0 in
        List.iteri
          (fun i t ->
            if used.(i) then begin
              remap.(i) <- !next;
              incr next;
              new_set := !new_set @ [ t ]
            end)
          !pe_set;
        Array.iteri (fun task i -> mapping.(task) <- remap.(i)) mapping;
        pe_set := !new_set
      end
      else begin
        (* try to vacate the priciest instance *)
        let prices =
          List.map (fun t -> (List.nth pb.pe_types t).price) !pe_set
        in
        let victim, _ =
          List.fold_left
            (fun (bi, bp) (i, p) -> if p > bp then (i, p) else (bi, bp))
            (-1, min_int)
            (List.mapi (fun i p -> (i, p)) prices)
        in
        if victim >= 0 && List.length !pe_set > 1 then begin
          let saved = Array.copy mapping in
          let ok = ref true in
          Array.iteri
            (fun task inst ->
              if !ok && inst = victim then begin
                (* cheapest feasible alternative instance *)
                let found = ref false in
                List.iteri
                  (fun alt _ ->
                    if (not !found) && alt <> victim then begin
                      mapping.(task) <- alt;
                      incr nodes;
                      if ms () <= deadline then found := true
                      else mapping.(task) <- inst
                    end)
                  !pe_set;
                if not !found then ok := false
              end)
            saved;
          if !ok then begin
            (* drop the now-empty victim *)
            let remap i = if i > victim then i - 1 else i in
            Array.iteri (fun task i -> mapping.(task) <- remap i) mapping;
            pe_set := List.filteri (fun i _ -> i <> victim) !pe_set
          end
          else begin
            Array.blit saved 0 mapping 0 n;
            continue_ := false
          end
        end
        else continue_ := false
      end
    end
  done;
  { (solution_of pb ~pe_set:!pe_set ~mapping ~nodes:!nodes
       ~algorithm:"sensitivity")
    with nodes = !nodes }

let pp_solution fmt pb s =
  Format.fprintf fmt
    "@[<v>%s: price=%d makespan=%d %s, %d PEs [%s], %d nodes@]" s.algorithm
    s.price s.makespan
    (if s.feasible then "(feasible)" else "(MISSES deadline)")
    (List.length s.pe_set)
    (String.concat "; "
       (List.map (fun t -> (List.nth pb.pe_types t).pt_name) s.pe_set))
    s.nodes
