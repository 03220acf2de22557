module T = Codesign_ir.Task_graph
module Rng = Codesign_ir.Rng

type result = {
  partition : Cost.partition;
  eval : Cost.eval;
  objective : float;
  evaluations : int;
  algorithm : string;
}

let respects_budget ?(params = Cost.default_params) ~max_area g p =
  match max_area with
  | None -> true
  | Some budget -> Cost.area_of_partition ~params g p <= budget

(* Shared search context: counts evaluations, applies the budget as a
   hard constraint (infeasible partitions score infinity). *)
module Ctx = struct
  type t = {
    g : T.t;
    params : Cost.params;
    weights : Cost.weights;
    max_area : int option;
    mutable evals : int;
  }

  let make g params weights max_area =
    { g; params; weights; max_area; evals = 0 }

  let score ctx p =
    ctx.evals <- ctx.evals + 1;
    if not (respects_budget ~params:ctx.params ~max_area:ctx.max_area ctx.g p)
    then infinity
    else
      let e = Cost.evaluate ~params:ctx.params ctx.g p in
      Cost.objective ~weights:ctx.weights ctx.g e

  let finish ctx ~algorithm p =
    let eval = Cost.evaluate ~params:ctx.params ctx.g p in
    {
      partition = p;
      eval;
      objective = Cost.objective ~weights:ctx.weights ctx.g eval;
      evaluations = ctx.evals;
      algorithm;
    }
end

(* ------------------------------------------------------------------ *)
(* Greedy hot-spot extraction (COSYMA flavour)                         *)
(* ------------------------------------------------------------------ *)

let greedy ?(params = Cost.default_params)
    ?(weights = Cost.default_weights) ?max_area g =
  let ctx = Ctx.make g params weights max_area in
  let n = T.n_tasks g in
  let p = Array.make n false in
  let best = ref (Ctx.score ctx p) in
  let improved = ref true in
  while !improved do
    improved := false;
    (* candidate moves: each software task into hardware, ranked by
       objective after the move *)
    let best_move = ref None in
    for i = 0 to n - 1 do
      if not p.(i) then begin
        p.(i) <- true;
        let s = Ctx.score ctx p in
        p.(i) <- false;
        if s < !best then
          match !best_move with
          | Some (_, sb) when sb <= s -> ()
          | _ -> best_move := Some (i, s)
      end
    done;
    match !best_move with
    | Some (i, s) ->
        p.(i) <- true;
        best := s;
        improved := true
    | None -> ()
  done;
  Ctx.finish ctx ~algorithm:"greedy" p

(* ------------------------------------------------------------------ *)
(* Kernighan-Lin-style passes                                          *)
(* ------------------------------------------------------------------ *)

let kl ?(params = Cost.default_params) ?(weights = Cost.default_weights)
    ?max_area ?(max_passes = 8) g =
  let ctx = Ctx.make g params weights max_area in
  let n = T.n_tasks g in
  let p = Array.make n false in
  let current = ref (Ctx.score ctx p) in
  let pass_improved = ref true in
  let passes = ref 0 in
  while !pass_improved && !passes < max_passes do
    incr passes;
    pass_improved := false;
    let locked = Array.make n false in
    (* trace of moves with running score *)
    let trail = ref [] in
    let score_now = ref !current in
    for _step = 1 to n do
      (* best single flip among unlocked tasks, even if worsening *)
      let best_move = ref None in
      for i = 0 to n - 1 do
        if not locked.(i) then begin
          p.(i) <- not p.(i);
          let s = Ctx.score ctx p in
          p.(i) <- not p.(i);
          match !best_move with
          | Some (_, sb) when sb <= s -> ()
          | _ -> best_move := Some (i, s)
        end
      done;
      match !best_move with
      | Some (i, s) ->
          p.(i) <- not p.(i);
          locked.(i) <- true;
          score_now := s;
          trail := (i, s) :: !trail
      | None -> ()
    done;
    (* unwind to the best prefix of the pass *)
    let trail = List.rev !trail in
    let best_prefix = ref 0 and best_score = ref !current in
    List.iteri
      (fun idx (_, s) ->
        if s < !best_score then begin
          best_score := s;
          best_prefix := idx + 1
        end)
      trail;
    List.iteri
      (fun idx (i, _) -> if idx >= !best_prefix then p.(i) <- not p.(i))
      trail;
    if !best_score < !current -. 1e-9 then begin
      current := !best_score;
      pass_improved := true
    end
  done;
  Ctx.finish ctx ~algorithm:"kl" p

(* ------------------------------------------------------------------ *)
(* Simulated annealing                                                 *)
(* ------------------------------------------------------------------ *)

let simulated_annealing ?(params = Cost.default_params)
    ?(weights = Cost.default_weights) ?max_area ?(seed = 42) ?iterations
    ?(t0 = 1000.) ?(cooling = 0.97) g =
  let ctx = Ctx.make g params weights max_area in
  let n = T.n_tasks g in
  let iterations =
    match iterations with Some i -> i | None -> 200 * max n 1
  in
  let rng = Rng.create seed in
  let p = Array.make n false in
  let current = ref (Ctx.score ctx p) in
  let best_p = Array.copy p in
  let best = ref !current in
  let temp = ref t0 in
  if n > 0 then
    for step = 1 to iterations do
      let i = Rng.int rng n in
      p.(i) <- not p.(i);
      let s = Ctx.score ctx p in
      let delta = s -. !current in
      let accept =
        delta <= 0.0
        || (s < infinity
            && Rng.float rng < exp (-.delta /. max !temp 1e-6))
      in
      if accept then begin
        current := s;
        if s < !best then begin
          best := s;
          Array.blit p 0 best_p 0 n
        end
      end
      else p.(i) <- not p.(i);
      if step mod 20 = 0 then temp := !temp *. cooling
    done;
  Ctx.finish ctx ~algorithm:"sa" best_p

(* ------------------------------------------------------------------ *)
(* Global criticality / local phase (Kalavade-Lee)                     *)
(* ------------------------------------------------------------------ *)

let gclp ?(params = Cost.default_params) ?(weights = Cost.default_weights)
    ?max_area g =
  let ctx = Ctx.make g params weights max_area in
  let n = T.n_tasks g in
  let p = Array.make n false in
  let order = T.topo_order g in
  let deadline =
    if g.T.deadline > 0 then g.T.deadline
    else (* no deadline: criticality measured against the SW critical path *)
      T.sw_critical_path g
  in
  List.iter
    (fun i ->
      let t = g.T.tasks.(i) in
      (* global criticality: projected latency if everything still
         undecided stays in software, relative to the deadline *)
      let projected =
        Cost.(evaluate ~params g p).latency
      in
      let gc = float_of_int projected /. float_of_int (max deadline 1) in
      (* local phase: affinity of this task for hardware *)
      let affinity =
        t.T.parallelism
        +. (if t.T.modifiable then -0.4 else 0.0)
        +. (float_of_int (t.T.sw_cycles - t.T.hw_cycles)
            /. float_of_int (max t.T.sw_cycles 1))
           *. 0.5
      in
      let threshold = 0.9 -. (0.4 *. (affinity -. 0.5)) in
      if gc > threshold then begin
        (* time-critical phase: move to HW if it helps latency and fits *)
        p.(i) <- true;
        let with_hw = Ctx.score ctx p in
        p.(i) <- false;
        let without = Ctx.score ctx p in
        if with_hw < without then p.(i) <- true
      end
      else begin
        (* area-saving phase: prefer software unless hardware is
           strictly better even on the area-weighted objective *)
        p.(i) <- true;
        let with_hw = Ctx.score ctx p in
        p.(i) <- false;
        let without = Ctx.score ctx p in
        if with_hw +. 1e-9 < without then p.(i) <- true
      end)
    order;
  Ctx.finish ctx ~algorithm:"gclp" p

(* ------------------------------------------------------------------ *)
(* Exhaustive reference                                                *)
(* ------------------------------------------------------------------ *)

let exhaustive_max_tasks = 20

let exhaustive ?(params = Cost.default_params)
    ?(weights = Cost.default_weights) ?max_area g =
  let ctx = Ctx.make g params weights max_area in
  let n = T.n_tasks g in
  if n > exhaustive_max_tasks then
    invalid_arg "Partition.exhaustive: too many tasks";
  let best_p = Array.make n false in
  let best = ref (Ctx.score ctx best_p) in
  let p = Array.make n false in
  for mask = 1 to (1 lsl n) - 1 do
    for i = 0 to n - 1 do
      p.(i) <- (mask lsr i) land 1 = 1
    done;
    let s = Ctx.score ctx p in
    if s < !best then begin
      best := s;
      Array.blit p 0 best_p 0 n
    end
  done;
  Ctx.finish ctx ~algorithm:"exhaustive" best_p
