module T = Codesign_ir.Task_graph

type app = { graph : T.t; period : int; exec : int array array }

type problem = { apps : app list; pe_types : Cosynth.pe_type list }

(* bus cycles per data word an edge carries between PE instances *)
let comm_cycles_per_word = 2

(* instance bound per PE type *)
let max_copies = 6

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm a b = a / gcd a b * b

let hyperperiod pb =
  List.fold_left (fun acc a -> lcm acc a.period) 1 pb.apps

let problem apps pe_types =
  if apps = [] then invalid_arg "Periodic.problem: no applications";
  if pe_types = [] then invalid_arg "Periodic.problem: empty PE library";
  let k = List.length pe_types in
  List.iter
    (fun a ->
      if a.period <= 0 then invalid_arg "Periodic.problem: period <= 0";
      if Array.length a.exec <> T.n_tasks a.graph then
        invalid_arg "Periodic.problem: exec rows <> task count";
      Array.iter
        (fun row ->
          if Array.length row <> k then
            invalid_arg "Periodic.problem: exec columns <> PE type count";
          Array.iter
            (fun c ->
              if c <= 0 then
                invalid_arg "Periodic.problem: non-positive execution time")
            row)
        a.exec)
    apps;
  let pb = { apps; pe_types } in
  let h = hyperperiod pb in
  let instances =
    List.fold_left (fun acc a -> acc + (h / a.period)) 0 apps
  in
  if instances > 64 then
    invalid_arg
      (Printf.sprintf
         "Periodic.problem: hyperperiod expands to %d instances (> 64); \
          choose harmonic periods"
         instances);
  pb

(* one expanded task: which app, which task, which instance *)
type xtask = {
  app_idx : int;
  task : int;
  release : int;
  abs_deadline : int;
}

let expand pb =
  let h = hyperperiod pb in
  let xs = ref [] in
  List.iteri
    (fun ai a ->
      let reps = h / a.period in
      for k = 0 to reps - 1 do
        for t = 0 to T.n_tasks a.graph - 1 do
          xs :=
            {
              app_idx = ai;
              task = t;
              release = k * a.period;
              abs_deadline = (k + 1) * a.period;
            }
            :: !xs
        done
      done)
    pb.apps;
  List.rev !xs

type verdict = { feasible : bool; max_lateness : int; utilisation : float }

let check pb ~pe_set =
  let insts = Array.of_list pe_set in
  let n_inst = Array.length insts in
  if n_inst = 0 then
    { feasible = false; max_lateness = max_int; utilisation = 0.0 }
  else begin
    let apps = Array.of_list pb.apps in
    let h = hyperperiod pb in
    let xs = Array.of_list (expand pb) in
    let n = Array.length xs in
    (* finish time per expanded task; -1 = unscheduled *)
    let finish = Array.make n (-1) in
    let mapping = Array.make n (-1) in
    let free = Array.make n_inst 0 in
    let busy = ref 0 in
    (* index expanded tasks by (app, instance-release, task) for
       dependence lookup *)
    let index = Hashtbl.create 64 in
    Array.iteri
      (fun i x -> Hashtbl.replace index (x.app_idx, x.release, x.task) i)
      xs;
    let n_done = ref 0 in
    while !n_done < n do
      (* ready expanded tasks: all graph predecessors of the same
         instance scheduled *)
      let best = ref None in
      Array.iteri
        (fun i x ->
          if finish.(i) < 0 then begin
            let a = apps.(x.app_idx) in
            let preds = T.in_edges a.graph x.task in
            let sched p =
              finish.(Hashtbl.find index (x.app_idx, x.release, p)) >= 0
            in
            if List.for_all (fun (e : T.edge) -> sched e.src) preds then begin
              (* earliest-finish-time mapping over instances *)
              let data_ready inst =
                List.fold_left
                  (fun acc (e : T.edge) ->
                    let pi =
                      Hashtbl.find index (x.app_idx, x.release, e.src)
                    in
                    let comm =
                      if mapping.(pi) <> inst then
                        e.words * comm_cycles_per_word
                      else 0
                    in
                    max acc (finish.(pi) + comm))
                  x.release preds
              in
              for inst = 0 to n_inst - 1 do
                let start = max (data_ready inst) free.(inst) in
                let f = start + a.exec.(x.task).(insts.(inst)) in
                match !best with
                | Some (bf, _, _, _) when bf <= f -> ()
                | _ -> best := Some (f, i, inst, start)
              done
            end
          end)
        xs;
      match !best with
      | None -> assert false
      | Some (f, i, inst, _start) ->
          finish.(i) <- f;
          mapping.(i) <- inst;
          free.(inst) <- f;
          busy := !busy + apps.(xs.(i).app_idx).exec.(xs.(i).task).(insts.(inst));
          incr n_done
    done;
    let max_lateness =
      Array.to_list xs
      |> List.mapi (fun i x -> finish.(i) - x.abs_deadline)
      |> List.fold_left max min_int
    in
    {
      feasible = max_lateness <= 0;
      max_lateness;
      utilisation = float_of_int !busy /. float_of_int (n_inst * h);
    }
  end

type solution = {
  pe_set : int list;
  price : int;
  verdict : verdict;
  iterations : int;
}

let price_of pb pe_set =
  List.fold_left
    (fun acc t -> acc + (List.nth pb.pe_types t).Cosynth.price)
    0 pe_set

let synthesize pb =
  let max_iters = 100 in
  let k = List.length pb.pe_types in
  let cheapest =
    List.init k Fun.id
    |> List.fold_left
         (fun acc t ->
           if
             (List.nth pb.pe_types t).Cosynth.price
             < (List.nth pb.pe_types acc).Cosynth.price
           then t
           else acc)
         0
  in
  let pe_set = ref [ cheapest ] in
  let iters = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iters < max_iters do
    incr iters;
    let v = check pb ~pe_set:!pe_set in
    if v.feasible then begin
      (* reclaim: try dropping or downgrading instances *)
      let improved = ref false in
      (* drop *)
      List.iteri
        (fun idx _ ->
          if not !improved then begin
            let candidate = List.filteri (fun i _ -> i <> idx) !pe_set in
            if candidate <> [] && (check pb ~pe_set:candidate).feasible then begin
              pe_set := candidate;
              improved := true
            end
          end)
        !pe_set;
      (* downgrade to a cheaper type *)
      if not !improved then
        List.iteri
          (fun idx t ->
            if not !improved then
              List.iteri
                (fun t' (pt' : Cosynth.pe_type) ->
                  if
                    (not !improved)
                    && pt'.Cosynth.price
                       < (List.nth pb.pe_types t).Cosynth.price
                  then begin
                    let candidate =
                      List.mapi (fun i x -> if i = idx then t' else x) !pe_set
                    in
                    if (check pb ~pe_set:candidate).feasible then begin
                      pe_set := candidate;
                      improved := true
                    end
                  end)
                pb.pe_types)
          !pe_set;
      if not !improved then continue_ := false
    end
    else begin
      (* infeasible: best lateness reduction per unit price among
         (add instance of type t) and (upgrade instance to type t) *)
      let current = v.max_lateness in
      let best = ref None in
      let consider dprice candidate =
        let counts = Array.make k 0 in
        List.iter (fun t -> counts.(t) <- counts.(t) + 1) candidate;
        if Array.for_all (fun c -> c <= max_copies) counts then begin
          let v' = check pb ~pe_set:candidate in
          let gain = current - v'.max_lateness in
          if gain > 0 then begin
            let ratio = float_of_int gain /. float_of_int (max dprice 1) in
            match !best with
            | Some (r, _, _) when r >= ratio -> ()
            | _ -> best := Some (ratio, candidate, v')
          end
        end
      in
      for t = 0 to k - 1 do
        consider (List.nth pb.pe_types t).Cosynth.price (!pe_set @ [ t ]);
        List.iteri
          (fun idx old_t ->
            if old_t <> t then
              consider
                (max 0
                   ((List.nth pb.pe_types t).Cosynth.price
                   - (List.nth pb.pe_types old_t).Cosynth.price))
                (List.mapi (fun i x -> if i = idx then t else x) !pe_set))
          !pe_set
      done;
      match !best with
      | Some (_, candidate, _) -> pe_set := candidate
      | None -> continue_ := false
    end
  done;
  {
    pe_set = !pe_set;
    price = price_of pb !pe_set;
    verdict = check pb ~pe_set:!pe_set;
    iterations = !iters;
  }
