(** EXP-5 — paper Fig. 5 / §4.2: heterogeneous multiprocessor
    co-synthesis.

    Sweeps task-graph size and compares the three engines the paper
    surveys: exact SOS (ILP-equivalent branch & bound [12]), Beck-style
    vector bin packing [13], and Yen-Wolf sensitivity-driven improvement
    [9].

    Expected shape: SOS is always cheapest-or-equal among feasible
    solutions but its explored node count explodes with size; the
    heuristics stay within a modest price gap at a tiny fraction of the
    search effort. *)

open Codesign
module T = Codesign_ir.Task_graph
module Tgff = Codesign_workloads.Tgff

let pe_lib =
  [
    { Cosynth.pt_name = "fast"; price = 100 };
    { Cosynth.pt_name = "mid"; price = 40 };
    { Cosynth.pt_name = "slow"; price = 15 };
  ]

let problem ?interconnect ?comm_cycles_per_word ~seed ~n_tasks () =
  let g =
    Tgff.generate
      {
        Tgff.default_spec with
        Tgff.seed;
        n_tasks;
        layers = max 2 (n_tasks / 3);
        deadline_factor = 1.1;
      }
  in
  let exec =
    Array.map
      (fun (t : T.task) ->
        [| max 1 (t.T.sw_cycles / 4); max 1 (t.T.sw_cycles / 2);
           t.T.sw_cycles |])
      g.T.tasks
  in
  Cosynth.problem ?interconnect ?comm_cycles_per_word g pe_lib ~exec

type point = {
  n_tasks : int;
  algorithm : string;
  price : int;
  feasible : bool;
  nodes : int;
  gap : float;  (** price overhead vs the exact optimum *)
}

let sweep ~sizes ~seeds =
  List.concat_map
    (fun n_tasks ->
      List.concat_map
        (fun seed ->
          let pb = problem ~seed ~n_tasks () in
          let opt = Cosynth.sos pb in
          let gap_of (s : Cosynth.solution) =
            if opt.Cosynth.feasible && s.Cosynth.feasible then
              float_of_int (s.Cosynth.price - opt.Cosynth.price)
              /. float_of_int (max opt.Cosynth.price 1)
            else nan
          in
          List.map
            (fun (s : Cosynth.solution) ->
              {
                n_tasks;
                algorithm = s.Cosynth.algorithm;
                price = s.Cosynth.price;
                feasible = s.Cosynth.feasible;
                nodes = s.Cosynth.nodes;
                gap = gap_of s;
              })
            [ opt; Cosynth.binpack pb; Cosynth.sensitivity pb ])
        seeds)
    sizes

let run ?(quick = false) () =
  let sizes = if quick then [ 5; 7 ] else [ 5; 7; 9; 11 ] in
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let points = sweep ~sizes ~seeds in
  (* aggregate per (size, algorithm) *)
  let algs = [ "sos"; "binpack"; "sensitivity" ] in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun alg ->
            let ps =
              List.filter (fun p -> p.n_tasks = n && p.algorithm = alg) points
            in
            let count = max 1 (List.length ps) in
            let avg f =
              List.fold_left (fun a p -> a +. f p) 0.0 ps
              /. float_of_int count
            in
            let feas =
              List.length (List.filter (fun p -> p.feasible) ps)
            in
            let gaps = List.filter (fun p -> not (Float.is_nan p.gap)) ps in
            let avg_gap =
              if gaps = [] then 0.0
              else
                List.fold_left (fun a p -> a +. p.gap) 0.0 gaps
                /. float_of_int (List.length gaps)
            in
            [
              string_of_int n;
              alg;
              Report.ff (avg (fun p -> float_of_int p.price));
              Printf.sprintf "%d/%d" feas (List.length ps);
              Report.fp avg_gap;
              Report.fi
                (int_of_float (avg (fun p -> float_of_int p.nodes)));
            ])
          algs)
      sizes
  in
  let t1 =
    Report.table
      ~title:
        "EXP-5 (Fig. 5 / SS4.2): heterogeneous multiprocessor co-synthesis \
         — exact vs heuristic"
      ~headers:
        [ "tasks"; "algorithm"; "avg price"; "feasible"; "avg gap";
          "avg search nodes" ]
      ~align:[ Report.R; L; R; R; R; R ]
      rows
  in
  (* the Fig. 5 interconnection network: synthesising against a shared
     bus vs dedicated links *)
  let rows2 =
    List.map
      (fun seed ->
        let comm_cycles_per_word = 12 in
        let p2p = Cosynth.sos (problem ~comm_cycles_per_word ~seed ~n_tasks:7 ()) in
        let shared =
          Cosynth.sos
            (problem ~interconnect:Cosynth.Shared_bus ~comm_cycles_per_word
               ~seed ~n_tasks:7 ())
        in
        (* the p2p-optimal configuration re-evaluated under contention *)
        let pb_bus =
          problem ~interconnect:Cosynth.Shared_bus ~comm_cycles_per_word
            ~seed ~n_tasks:7 ()
        in
        let p2p_under_bus =
          Cosynth.makespan pb_bus ~pe_set:p2p.Cosynth.pe_set
            ~mapping:p2p.Cosynth.mapping
        in
        [
          string_of_int seed;
          Report.fi p2p.Cosynth.price;
          Report.fi p2p.Cosynth.makespan;
          Report.fi p2p_under_bus;
          Report.fi shared.Cosynth.price;
          Report.fi shared.Cosynth.makespan;
        ])
      seeds
  in
  let t2 =
    Report.table
      ~title:
        "EXP-5b: interconnect model — dedicated links vs one shared bus \
         (exact synthesis, 7 tasks, 12 cycles/word)"
      ~headers:
        [ "seed"; "p2p price"; "p2p makespan"; "p2p cfg on bus";
          "bus-aware price"; "bus-aware makespan" ]
      ~align:[ Report.R; R; R; R; R; R ]
      rows2
  in
  (* periodic multi-application synthesis: the Yen-Wolf problem domain;
     as periods tighten, the synthesised configuration must grow *)
  let mk_app ~seed ~period =
    let g =
      Tgff.generate
        { Tgff.default_spec with Tgff.seed; n_tasks = 4; layers = 3;
          deadline_factor = 0.0; sw_cycles_range = (50, 200) }
    in
    { Periodic.graph = g; period;
      exec =
        Array.map
          (fun (t : T.task) -> [| max 1 (t.T.sw_cycles / 4); t.T.sw_cycles |])
          g.T.tasks }
  in
  let lib2 =
    [ { Cosynth.pt_name = "fast"; price = 100 };
      { Cosynth.pt_name = "slow"; price = 20 } ]
  in
  let rows3 =
    List.map
      (fun period ->
        let pb =
          Periodic.problem
            [ mk_app ~seed:7 ~period; mk_app ~seed:8 ~period:(2 * period) ]
            lib2
        in
        let s = Periodic.synthesize pb in
        [
          Report.fi period;
          Report.fi (Periodic.hyperperiod pb);
          Report.fi s.Periodic.price;
          Report.fi (List.length s.Periodic.pe_set);
          (if s.Periodic.verdict.Periodic.feasible then "yes" else "NO");
          Report.fp s.Periodic.verdict.Periodic.utilisation;
        ])
      (if quick then [ 4000; 600 ] else [ 8000; 2000; 800; 500; 400 ])
  in
  let t3 =
    Report.table
      ~title:
        "EXP-5c: periodic multi-application synthesis (two apps, periods P \
         and 2P; Yen-Wolf hyperperiod check)"
      ~headers:
        [ "period P"; "hyperperiod"; "price"; "PEs"; "feasible";
          "utilisation" ]
      ~align:[ Report.R; R; R; R; L; R ]
      rows3
  in
  t1 ^ "\n" ^ t2 ^ "\n" ^ t3

(* The exact optimum is never beaten: no feasible heuristic point is
   cheaper than sos (its relative price gap is at least -1e-9, a
   float's rounding), and sos is feasible somewhere. *)
let exact_never_beaten points =
  List.for_all
    (fun p ->
      p.algorithm = "sos" || (not p.feasible)
      || Float.is_nan p.gap || p.gap >= -1e-9)
    points
  && List.exists (fun p -> p.algorithm = "sos" && p.feasible) points

let shape_holds ?(quick = true) () =
  let sizes = if quick then [ 5 ] else [ 5; 7; 9 ] in
  (* a shared bus can only lengthen any given configuration *)
  let pb_p2p = problem ~comm_cycles_per_word:12 ~seed:1 ~n_tasks:6 () in
  let pb_bus =
    problem ~interconnect:Cosynth.Shared_bus ~comm_cycles_per_word:12 ~seed:1
      ~n_tasks:6 ()
  in
  let s = Cosynth.sos pb_p2p in
  let contention_monotone =
    Cosynth.makespan pb_bus ~pe_set:s.Cosynth.pe_set ~mapping:s.Cosynth.mapping
    >= s.Cosynth.makespan
  in
  contention_monotone && exact_never_beaten (sweep ~sizes ~seeds:[ 1; 2 ])
