(* Tests for the codesign core library: taxonomy, cost model,
   partitioning algorithms, multiprocessor co-synthesis, report
   rendering. *)

open Codesign
module T = Codesign_ir.Task_graph
module Tgff = Codesign_workloads.Tgff

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Taxonomy                                                            *)
(* ------------------------------------------------------------------ *)

let sw name host =
  {
    Taxonomy.comp_name = name;
    is_software = true;
    level = Taxonomy.Program;
    executes_on = host;
  }

let hw name level =
  { Taxonomy.comp_name = name; is_software = false; level; executes_on = None }

let test_classify_type1 () =
  (* embedded micro: SW program running on a gate-level netlist (§4.1) *)
  let sys =
    [ sw "app" (Some "mcu"); hw "mcu" Taxonomy.Gate_netlist;
      hw "glue" Taxonomy.Gate_netlist ]
  in
  check Alcotest.string "type I" "Type I"
    (Taxonomy.boundary_name (Taxonomy.classify sys))

let test_classify_type2 () =
  (* co-processor: SW and behavioural HW as peers (§4.5) *)
  let sys =
    [
      { (sw "app" None) with Taxonomy.level = Taxonomy.Behavioral };
      hw "coproc" Taxonomy.Behavioral;
    ]
  in
  check Alcotest.string "type II" "Type II"
    (Taxonomy.boundary_name (Taxonomy.classify sys))

let test_classify_mixed () =
  let sys =
    [
      sw "fw" (Some "mcu");
      { (sw "model" None) with Taxonomy.level = Taxonomy.Behavioral };
      hw "mcu" Taxonomy.Gate_netlist;
      hw "coproc" Taxonomy.Behavioral;
    ]
  in
  check Alcotest.string "mixed" "mixed"
    (Taxonomy.boundary_name (Taxonomy.classify sys))

let test_classify_validation () =
  (try
     ignore (Taxonomy.classify []);
     fail "empty"
   with Invalid_argument _ -> ());
  (try
     ignore (Taxonomy.classify [ hw "x" Taxonomy.Register_transfer ]);
     fail "no sw"
   with Invalid_argument _ -> ());
  try
    ignore (Taxonomy.classify [ sw "x" None ]);
    fail "no hw"
  with Invalid_argument _ -> ()

let test_catalogue_matches_paper () =
  let cat = Taxonomy.catalogue in
  check Alcotest.bool ">= 12 methodologies" true (List.length cat >= 12);
  (* §4.1-4.4 families are Type I; §4.5-4.6 Type II *)
  List.iter
    (fun (m : Taxonomy.methodology) ->
      let expect_t2 =
        m.Taxonomy.system_class = "application-specific co-processor"
        || m.Taxonomy.system_class = "multi-threaded co-processor"
      in
      if expect_t2 then
        check Alcotest.string (m.Taxonomy.m_name ^ " type") "Type II"
          (Taxonomy.boundary_name m.Taxonomy.m_boundary)
      else
        check Alcotest.string (m.Taxonomy.m_name ^ " type") "Type I"
          (Taxonomy.boundary_name m.Taxonomy.m_boundary))
    cat;
  (* Fig 2 containment: partitioning implies co-synthesis *)
  List.iter
    (fun (m : Taxonomy.methodology) ->
      if List.mem Taxonomy.Hw_sw_partitioning m.Taxonomy.activities then
        check Alcotest.bool
          (m.Taxonomy.m_name ^ " partitioning within cosynthesis") true
          (List.mem Taxonomy.Co_synthesis m.Taxonomy.activities))
    cat;
  (* criteria render four rows (the §5 checklist) *)
  List.iter
    (fun m ->
      check Alcotest.int "4 criteria" 4
        (List.length (Taxonomy.criteria m)))
    cat

let test_chinook_no_partitioning () =
  (* the paper: "Chinook ... does no partitioning" *)
  let chinook =
    List.find
      (fun (m : Taxonomy.methodology) ->
        m.Taxonomy.m_name = "interface co-synthesis (Chinook)")
      Taxonomy.catalogue
  in
  check Alcotest.bool "no partitioning" false
    (List.mem Taxonomy.Hw_sw_partitioning chinook.Taxonomy.activities);
  check Alcotest.bool "has cosynthesis" true
    (List.mem Taxonomy.Co_synthesis chinook.Taxonomy.activities)

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)
(* ------------------------------------------------------------------ *)

let mk id sw hw area =
  T.task ~id ~name:(Printf.sprintf "t%d" id) ~sw_cycles:sw ~hw_cycles:hw
    ~hw_area:area ~parallelism:1.0 ()

let chain () =
  T.make ~name:"chain" ~deadline:70
    [ mk 0 40 5 100; mk 1 30 4 80; mk 2 50 6 120 ]
    [ { T.src = 0; dst = 1; words = 2 }; { T.src = 1; dst = 2; words = 2 } ]

let test_cost_all_sw () =
  let g = chain () in
  let e = Cost.evaluate g (Cost.all_sw g) in
  check Alcotest.int "latency = serial sum" 120 e.Cost.latency;
  check Alcotest.int "no hw area" 0 e.Cost.hw_area;
  check Alcotest.int "no comm" 0 e.Cost.comm_words;
  check Alcotest.bool "misses deadline" false e.Cost.meets_deadline;
  check (Alcotest.float 0.01) "speedup 1" 1.0 e.Cost.speedup

let test_cost_all_hw () =
  let g = chain () in
  let e = Cost.evaluate g (Cost.all_hw g) in
  check Alcotest.bool "fast" true (e.Cost.latency < 30);
  check Alcotest.bool "area > 0" true (e.Cost.hw_area > 0);
  check Alcotest.bool "meets deadline" true e.Cost.meets_deadline;
  check Alcotest.bool "speedup" true (e.Cost.speedup > 3.0)

let test_cost_comm_charged () =
  let g = chain () in
  let p = [| false; true; false |] in
  let params = { Cost.default_params with Cost.comm_cycles_per_word = 50 } in
  let cheap =
    Cost.evaluate ~params:{ params with Cost.comm_cycles_per_word = 0 } g p
  in
  let dear = Cost.evaluate ~params g p in
  check Alcotest.int "comm words" 4 dear.Cost.comm_words;
  check Alcotest.bool "communication slows the schedule" true
    (dear.Cost.latency > cheap.Cost.latency)

let test_cost_sharing_reduces_area () =
  (* two tasks with identical op mixes share everything but overhead *)
  let t0 =
    T.task ~id:0 ~name:"a" ~sw_cycles:100 ~hw_cycles:10 ~hw_area:0
      ~ops:[ ("mul", 4) ] ()
  in
  let t1 =
    T.task ~id:1 ~name:"b" ~sw_cycles:100 ~hw_cycles:10 ~hw_area:0
      ~ops:[ ("mul", 4) ] ()
  in
  let g = T.make [ t0; t1 ] [] in
  let p = [| true; true |] in
  let shared = Cost.area_of_partition g p in
  let unshared =
    Cost.area_of_partition
      ~params:{ Cost.default_params with Cost.sharing = false }
      g p
  in
  check Alcotest.bool "sharing cheaper" true (shared < unshared)

let test_cost_hw_serialisation () =
  (* two independent HW tasks run concurrently: no serialisation *)
  let g =
    T.make [ mk 0 100 20 10; mk 1 100 20 10 ] []
  in
  let par = Cost.evaluate g [| true; true |] in
  check Alcotest.int "parallel" 20 par.Cost.latency

let test_cost_parallelism_scaling () =
  let serial_task =
    T.task ~id:0 ~name:"s" ~sw_cycles:100 ~hw_cycles:10 ~hw_area:10
      ~parallelism:0.0 ()
  in
  let par_task = { serial_task with T.parallelism = 1.0 } in
  let hw_latency t =
    let g = T.make [ t ] [] in
    (Cost.evaluate g (Cost.all_hw g)).Cost.latency
  in
  check Alcotest.bool "serial task gains less in hw" true
    (hw_latency serial_task > hw_latency par_task)

let test_cost_modifiability () =
  let t0 =
    T.task ~id:0 ~name:"m" ~sw_cycles:10 ~hw_cycles:2 ~hw_area:10
      ~modifiable:true ()
  in
  let g = T.make [ t0 ] [] in
  let e = Cost.evaluate g [| true |] in
  check Alcotest.int "flagged" 1 e.Cost.modifiable_in_hw;
  let obj_hw = Cost.objective g e in
  let obj_sw = Cost.objective g (Cost.evaluate g [| false |]) in
  check Alcotest.bool "objective punishes modifiable-in-hw" true
    (obj_hw > obj_sw)

let test_cost_partition_size_mismatch () =
  let g = chain () in
  try
    ignore (Cost.evaluate g [| true |]);
    fail "size mismatch"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let tight_graph seed =
  Tgff.generate
    { Tgff.default_spec with Tgff.seed; n_tasks = 10; layers = 4 }

let test_partition_greedy_meets_deadline () =
  let g = tight_graph 7 in
  let r = Partition.greedy g in
  check Alcotest.bool "meets deadline" true r.Partition.eval.Cost.meets_deadline;
  check Alcotest.bool "used hw" true (r.Partition.eval.Cost.n_hw > 0);
  check Alcotest.bool "not everything" true
    (r.Partition.eval.Cost.n_hw < T.n_tasks g)

let test_partition_algorithms_beat_all_sw () =
  let g = tight_graph 3 in
  let all_sw_obj = Cost.objective g (Cost.evaluate g (Cost.all_sw g)) in
  List.iter
    (fun (name, r) ->
      check Alcotest.bool (name ^ " improves on all-SW") true
        (r.Partition.objective < all_sw_obj))
    [
      ("greedy", Partition.greedy g);
      ("kl", Partition.kl g);
      ("sa", Partition.simulated_annealing g);
      ("gclp", Partition.gclp g);
    ]

let test_partition_matches_exhaustive_on_small () =
  let g =
    Tgff.generate
      { Tgff.default_spec with Tgff.seed = 5; n_tasks = 8; layers = 3 }
  in
  let opt = Partition.exhaustive g in
  List.iter
    (fun (name, r) ->
      check Alcotest.bool
        (Printf.sprintf "%s within 40%% of optimum (%f vs %f)" name
           r.Partition.objective opt.Partition.objective)
        true
        (r.Partition.objective <= opt.Partition.objective *. 1.4 +. 1e-9))
    [
      ("kl", Partition.kl g);
      ("sa", Partition.simulated_annealing g);
      ("greedy", Partition.greedy g);
      ("gclp", Partition.gclp g);
    ]

let test_partition_budget_respected () =
  let g = tight_graph 11 in
  let budget = 2000 in
  List.iter
    (fun (name, r) ->
      check Alcotest.bool (name ^ " respects budget") true
        (Cost.area_of_partition g r.Partition.partition <= budget))
    [
      ("greedy", Partition.greedy ~max_area:budget g);
      ("kl", Partition.kl ~max_area:budget g);
      ("sa", Partition.simulated_annealing ~max_area:budget g);
      ("gclp", Partition.gclp ~max_area:budget g);
    ]

let test_partition_sa_deterministic () =
  let g = tight_graph 13 in
  let a = Partition.simulated_annealing ~seed:5 g in
  let b = Partition.simulated_annealing ~seed:5 g in
  check Alcotest.bool "same seed same result" true
    (a.Partition.partition = b.Partition.partition)

let test_partition_more_budget_never_worse () =
  let g = tight_graph 17 in
  let small = Partition.greedy ~max_area:1500 g in
  let large = Partition.greedy ~max_area:15000 g in
  check Alcotest.bool "more area helps (or equal)" true
    (large.Partition.eval.Cost.latency <= small.Partition.eval.Cost.latency)

let test_partition_exhaustive_guard () =
  let g = Tgff.generate { Tgff.default_spec with Tgff.n_tasks = 25; layers = 5 } in
  try
    ignore (Partition.exhaustive g);
    fail "expected size guard"
  with Invalid_argument _ -> ()

let test_partition_evaluations_counted () =
  let g = tight_graph 19 in
  let r = Partition.greedy g in
  check Alcotest.bool "counted evals" true (r.Partition.evaluations > 0)

(* sharing ablation: with sharing-aware estimation, a budgeted partition
   fits at least as many tasks into hardware *)
let test_partition_sharing_ablation () =
  let g =
    Tgff.generate
      { Tgff.default_spec with Tgff.seed = 23; n_tasks = 12; layers = 4 }
  in
  let budget = 2500 in
  let with_sharing = Partition.greedy ~max_area:budget g in
  let without =
    Partition.greedy
      ~params:{ Cost.default_params with Cost.sharing = false }
      ~max_area:budget g
  in
  check Alcotest.bool "sharing admits >= tasks to hw" true
    (with_sharing.Partition.eval.Cost.n_hw
    >= without.Partition.eval.Cost.n_hw)

(* ------------------------------------------------------------------ *)
(* Cosynth                                                             *)
(* ------------------------------------------------------------------ *)

let pe_lib =
  [
    { Cosynth.pt_name = "fast"; price = 100 };
    { Cosynth.pt_name = "mid"; price = 40 };
    { Cosynth.pt_name = "slow"; price = 15 };
  ]

let mp_problem ?(seed = 1) ?(n_tasks = 6) ?(deadline_factor = 1.2) () =
  let g =
    Tgff.generate
      {
        Tgff.default_spec with
        Tgff.seed;
        n_tasks;
        layers = 3;
        deadline_factor;
      }
  in
  let exec =
    Array.map
      (fun (t : T.task) ->
        [| max 1 (t.T.sw_cycles / 4); max 1 (t.T.sw_cycles / 2);
           t.T.sw_cycles |])
      g.T.tasks
  in
  Cosynth.problem g pe_lib ~exec

let test_cosynth_problem_validation () =
  let g = Tgff.generate { Tgff.default_spec with Tgff.n_tasks = 3; layers = 2 } in
  (try
     ignore (Cosynth.problem g [] ~exec:[||]);
     fail "empty library"
   with Invalid_argument _ -> ());
  try
    ignore (Cosynth.problem g pe_lib ~exec:(Array.make 2 [| 1; 1; 1 |]));
    fail "bad dims"
  with Invalid_argument _ -> ()

let test_cosynth_sos_feasible_and_optimal_shape () =
  let pb = mp_problem () in
  let s = Cosynth.sos pb in
  check Alcotest.bool "feasible" true s.Cosynth.feasible;
  check Alcotest.bool "uses >= 1 pe" true (List.length s.Cosynth.pe_set >= 1);
  (* optimality: no single-PE configuration can beat it if it used > 1 *)
  check Alcotest.bool "nodes explored" true (s.Cosynth.nodes > 0)

let test_cosynth_heuristics_feasible () =
  for seed = 1 to 5 do
    let pb = mp_problem ~seed () in
    let bp = Cosynth.binpack pb in
    let sv = Cosynth.sensitivity pb in
    check Alcotest.bool
      (Printf.sprintf "binpack feasible (seed %d)" seed)
      true bp.Cosynth.feasible;
    check Alcotest.bool
      (Printf.sprintf "sensitivity feasible (seed %d)" seed)
      true sv.Cosynth.feasible
  done

let test_cosynth_exact_not_beaten () =
  (* SOS is exact: heuristics never find a cheaper feasible solution *)
  for seed = 1 to 6 do
    let pb = mp_problem ~seed ~n_tasks:5 () in
    let opt = Cosynth.sos pb in
    let bp = Cosynth.binpack pb in
    let sv = Cosynth.sensitivity pb in
    if opt.Cosynth.feasible then begin
      if bp.Cosynth.feasible then
        check Alcotest.bool
          (Printf.sprintf "binpack >= optimal price (seed %d)" seed)
          true
          (bp.Cosynth.price >= opt.Cosynth.price);
      if sv.Cosynth.feasible then
        check Alcotest.bool
          (Printf.sprintf "sensitivity >= optimal price (seed %d)" seed)
          true
          (sv.Cosynth.price >= opt.Cosynth.price)
    end
  done

let test_cosynth_makespan_consistency () =
  let pb = mp_problem () in
  let s = Cosynth.sos pb in
  let recomputed =
    Cosynth.makespan pb ~pe_set:s.Cosynth.pe_set ~mapping:s.Cosynth.mapping
  in
  check Alcotest.int "reported = recomputed" s.Cosynth.makespan recomputed;
  check Alcotest.int "price = recomputed"
    (Cosynth.price_of pb s.Cosynth.pe_set)
    s.Cosynth.price

let test_cosynth_loose_deadline_is_cheap () =
  (* with a very loose deadline one slow PE suffices *)
  let pb = mp_problem ~deadline_factor:20.0 () in
  let s = Cosynth.sos pb in
  check Alcotest.int "single cheapest PE" 15 s.Cosynth.price

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_table () =
  let t =
    Report.table ~title:"demo" ~headers:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "beta"; "22" ] ]
  in
  check Alcotest.bool "has title" true (String.length t > 0 && t.[0] = 'd');
  (* all data lines same width *)
  let lines =
    String.split_on_char '\n' t |> List.filter (fun l -> l <> "")
  in
  let widths = List.map String.length (List.tl lines) in
  check Alcotest.bool "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_report_formats () =
  check Alcotest.string "fi" "1_234_567" (Report.fi 1234567);
  check Alcotest.string "fi negative" "-1_000" (Report.fi (-1000));
  check Alcotest.string "fi small" "999" (Report.fi 999);
  check Alcotest.string "ff" "3.14" (Report.ff 3.14159);
  check Alcotest.string "fp" "12.5%" (Report.fp 0.125)

let test_report_pads_rows () =
  let t = Report.table ~headers:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  check Alcotest.bool "renders" true (String.length t > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "codesign_core"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "classify type I" `Quick test_classify_type1;
          Alcotest.test_case "classify type II" `Quick test_classify_type2;
          Alcotest.test_case "classify mixed" `Quick test_classify_mixed;
          Alcotest.test_case "validation" `Quick test_classify_validation;
          Alcotest.test_case "catalogue matches paper" `Quick
            test_catalogue_matches_paper;
          Alcotest.test_case "chinook has no partitioning" `Quick
            test_chinook_no_partitioning;
        ] );
      ( "cost",
        [
          Alcotest.test_case "all software" `Quick test_cost_all_sw;
          Alcotest.test_case "all hardware" `Quick test_cost_all_hw;
          Alcotest.test_case "communication charged" `Quick
            test_cost_comm_charged;
          Alcotest.test_case "sharing reduces area" `Quick
            test_cost_sharing_reduces_area;
          Alcotest.test_case "hw serialisation" `Quick
            test_cost_hw_serialisation;
          Alcotest.test_case "parallelism scaling" `Quick
            test_cost_parallelism_scaling;
          Alcotest.test_case "modifiability factor" `Quick
            test_cost_modifiability;
          Alcotest.test_case "size mismatch" `Quick
            test_cost_partition_size_mismatch;
        ] );
      ( "partition",
        [
          Alcotest.test_case "greedy meets deadline" `Quick
            test_partition_greedy_meets_deadline;
          Alcotest.test_case "all beat all-SW" `Quick
            test_partition_algorithms_beat_all_sw;
          Alcotest.test_case "near-optimal on small graphs" `Quick
            test_partition_matches_exhaustive_on_small;
          Alcotest.test_case "budget respected" `Quick
            test_partition_budget_respected;
          Alcotest.test_case "sa deterministic" `Quick
            test_partition_sa_deterministic;
          Alcotest.test_case "monotone in budget" `Quick
            test_partition_more_budget_never_worse;
          Alcotest.test_case "exhaustive guard" `Quick
            test_partition_exhaustive_guard;
          Alcotest.test_case "evaluations counted" `Quick
            test_partition_evaluations_counted;
          Alcotest.test_case "sharing ablation" `Quick
            test_partition_sharing_ablation;
        ] );
      ( "cosynth",
        [
          Alcotest.test_case "problem validation" `Quick
            test_cosynth_problem_validation;
          Alcotest.test_case "sos feasible" `Quick
            test_cosynth_sos_feasible_and_optimal_shape;
          Alcotest.test_case "heuristics feasible" `Quick
            test_cosynth_heuristics_feasible;
          Alcotest.test_case "exact never beaten" `Quick
            test_cosynth_exact_not_beaten;
          Alcotest.test_case "makespan consistency" `Quick
            test_cosynth_makespan_consistency;
          Alcotest.test_case "loose deadline cheap" `Quick
            test_cosynth_loose_deadline_is_cheap;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "formats" `Quick test_report_formats;
          Alcotest.test_case "pads rows" `Quick test_report_pads_rows;
        ] );
    ]
