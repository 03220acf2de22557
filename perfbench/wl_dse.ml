(* dse: partitioning and co-synthesis over generated task graphs.

   A round is 13 TGFF graphs of 8, 9, ..., 20 tasks, so every round
   holds the same size mix and a run's cost does not hang on how many
   large graphs its seed drew; structure, layer count and deadline
   (0.6-1.0 of the software critical path) come from the seed.  Each
   graph gets the four partitioning heuristics, the exhaustive optimum
   up to 12 tasks, the two co-synthesis heuristics, and the exact SOS
   search up to 8 tasks.  Nothing here dispatches a kernel event, so a
   change to the kernel, the ISS or the bus must not move this
   workload. *)

module Tg = Codesign_ir.Task_graph
module Rng = Codesign_ir.Rng
module Json = Codesign_obs.Json
module Tgff = Codesign_workloads.Tgff
module Partition = Codesign.Partition
module Cost = Codesign.Cost
module Cosynth = Codesign.Cosynth
open Workload

let min_tasks = 8
let graphs_per_round = 13
let calibration_evals = 100

let pe_lib =
  [
    { Cosynth.pt_name = "fast"; price = 100 };
    { Cosynth.pt_name = "mid"; price = 40 };
    { Cosynth.pt_name = "slow"; price = 15 };
  ]

let bits p = String.init (Array.length p) (fun i -> if p.(i) then '1' else '0')

let partition_op g ~best (name, run) =
  op ~label:("Partition." ^ name) ~layer:"core.partition" ~kind:name (fun () ->
      let r = run g in
      fun () ->
        let e = r.Partition.eval in
        let error =
          (if Cost.evaluate g r.Partition.partition <> e then
             Some "reported eval differs from a recomputation"
           else None)
          <|> (fun () ->
          if Cost.objective g e <> r.Partition.objective then
            Some "reported objective differs from a recomputation"
          else None)
          <|> (fun () ->
          if e.Cost.latency <= 0 then Some "non-positive latency" else None)
          <|> fun () ->
          (* a heuristic never beats the optimum; the optimum runs last *)
          if name = "exhaustive" && r.Partition.objective > !best +. 1e-9 then
            Some
              (Printf.sprintf "a heuristic (%g) beat the exhaustive optimum (%g)"
                 !best r.Partition.objective)
          else None
        in
        best := Float.min !best r.Partition.objective;
        check
          ~counts:[ ("core.partition.cost_evals", r.Partition.evaluations) ]
          (Printf.sprintf "%s %s %h %d" name (bits r.Partition.partition)
             r.Partition.objective r.Partition.evaluations)
          (Option.map
             (fun m -> Printf.sprintf "%s on %d tasks: %s" name (Tg.n_tasks g) m)
             error))

let cosynth_op pb ~best_price (name, run) =
  op ~label:("Cosynth." ^ name) ~layer:"core.cosynth" ~kind:name (fun () ->
      let s = run pb in
      fun () ->
        let deadline = pb.Cosynth.tg.Tg.deadline in
        let n_inst = List.length s.Cosynth.pe_set in
        let error =
          (if s.Cosynth.price <> Cosynth.price_of pb s.Cosynth.pe_set then
             Some "price differs from its instance set"
           else None)
          <|> (fun () ->
          if Array.exists (fun i -> i < 0 || i >= n_inst) s.Cosynth.mapping
          then Some "a task is mapped to no instance"
          else None)
          <|> (fun () ->
          if
            s.Cosynth.makespan
            <> Cosynth.makespan pb ~pe_set:s.Cosynth.pe_set
                 ~mapping:s.Cosynth.mapping
          then Some "makespan differs from a recomputation"
          else None)
          <|> (fun () ->
          if s.Cosynth.feasible <> (deadline = 0 || s.Cosynth.makespan <= deadline)
          then Some "feasibility flag contradicts the makespan"
          else None)
          <|> fun () ->
          if name = "sos" && s.Cosynth.feasible && s.Cosynth.price > !best_price
          then Some "a heuristic found a cheaper feasible design than SOS"
          else None
        in
        if s.Cosynth.feasible then best_price := min !best_price s.Cosynth.price;
        let ints l = String.concat "," (List.map string_of_int l) in
        check
          ~counts:[ ("core.cosynth.nodes", s.Cosynth.nodes) ]
          (Printf.sprintf "%s %s %s %d %d %b %d" name (ints s.Cosynth.pe_set)
             (ints (Array.to_list s.Cosynth.mapping))
             s.Cosynth.price s.Cosynth.makespan s.Cosynth.feasible s.Cosynth.nodes)
          error)

(* Times [Cost.evaluate] alone on random partitions of the graph — the
   calibration behind the [core.cost.evaluate_us] metrics. *)
let calibration g rng tr =
  let n = Tg.n_tasks g in
  let parts =
    Array.init calibration_evals (fun _ -> Array.init n (fun _ -> Rng.bool rng))
  in
  Trace.with_span tr ~name:"Cost.evaluate" ~cat:"core.cost"
    ~args:[ ("n_tasks", Json.Int n); ("evals", Json.Int calibration_evals) ]
    (fun () -> Array.iter (fun p -> ignore (Cost.evaluate g p)) parts);
  []

let graph_ops ~seed j =
  let n = min_tasks + (j mod graphs_per_round) in
  let rng = rng ~seed j in
  let g =
    Tgff.generate
      {
        Tgff.default_spec with
        Tgff.seed = Rng.int rng 1_000_000_000;
        n_tasks = n;
        layers = Rng.int_in rng 2 5;
        deadline_factor = 0.6 +. (0.4 *. Rng.float rng);
      }
  in
  let exec =
    Array.map
      (fun (t : Tg.task) ->
        [| max 1 (t.Tg.sw_cycles / 4); max 1 (t.Tg.sw_cycles / 2); t.Tg.sw_cycles |])
      g.Tg.tasks
  in
  let pb = Cosynth.problem g pe_lib ~exec in
  let best = ref infinity and best_price = ref max_int in
  let partitioners =
    [
      ("greedy", fun g -> Partition.greedy g);
      ("kl", fun g -> Partition.kl g);
      ("simulated_annealing", fun g -> Partition.simulated_annealing g);
      ("gclp", fun g -> Partition.gclp g);
    ]
    @ if n <= 12 then [ ("exhaustive", fun g -> Partition.exhaustive g) ] else []
  in
  let synthesizers =
    [ ("binpack", Cosynth.binpack); ("sensitivity", fun pb -> Cosynth.sensitivity pb) ]
    @ if n <= 8 then [ ("sos", fun pb -> Cosynth.sos pb) ] else []
  in
  match
    List.map (partition_op g ~best) partitioners
    @ List.map (cosynth_op pb ~best_price) synthesizers
  with
  | first :: rest -> { first with replay = Some (calibration g rng) } :: rest
  | [] -> assert false

let layers spans ~counts =
  let count k = float_of_int (Option.value (List.assoc_opt k counts) ~default:0) in
  let part_s = busy spans ~pred:(fun s -> s.Trace.cat = "core.partition") in
  let evaluate_us keep =
    let cal =
      List.filter
        (fun s ->
          s.Trace.name = "Cost.evaluate"
          && match List.assoc_opt "n_tasks" s.Trace.args with
             | Some (Json.Int n) -> keep n
             | _ -> false)
        spans
    in
    ratio (Trace.total cal *. 1e6) (float_of_int (calibration_evals * List.length cal))
  in
  [
    ("core.partition.busy_s", part_s);
    ("core.partition.cost_evals", count "core.partition.cost_evals");
    ("core.partition.evals_per_s", ratio (count "core.partition.cost_evals") part_s);
    ("core.cost.evaluate_us.le12", evaluate_us (fun n -> n <= 12));
    ("core.cost.evaluate_us.ge16", evaluate_us (fun n -> n >= 16));
    ("core.cosynth.busy_s", busy spans ~pred:(fun s -> s.Trace.cat = "core.cosynth"));
    ("core.cosynth.nodes", count "core.cosynth.nodes");
  ]

let make ~seed =
  {
    round =
      (fun r ->
        List.concat_map
          (fun k -> graph_ops ~seed ((r * graphs_per_round) + k))
          (List.init graphs_per_round Fun.id));
    prefix_rounds = 2;
    smoke_ops = 8;
    layers;
  }
