(* Tests for periodic, multi-application co-synthesis (Yen-Wolf's
   actual problem domain: several task graphs with periods sharing one
   PE configuration, checked over the hyperperiod). *)

open Codesign
module T = Codesign_ir.Task_graph
module Tgff = Codesign_workloads.Tgff

let check = Alcotest.check
let fail = Alcotest.fail

let pe_lib =
  [
    { Cosynth.pt_name = "fast"; price = 100 };
    { Cosynth.pt_name = "slow"; price = 20 };
  ]

let mk_app ~seed ~n_tasks ~period =
  let g =
    Tgff.generate
      { Tgff.default_spec with Tgff.seed; n_tasks; layers = min 3 n_tasks;
        deadline_factor = 0.0; sw_cycles_range = (50, 200) }
  in
  {
    Periodic.graph = g;
    period;
    exec =
      Array.map
        (fun (t : T.task) -> [| max 1 (t.T.sw_cycles / 4); t.T.sw_cycles |])
        g.T.tasks;
  }

let test_hyperperiod () =
  let pb =
    Periodic.problem
      [ mk_app ~seed:1 ~n_tasks:3 ~period:1000;
        mk_app ~seed:2 ~n_tasks:3 ~period:1500 ]
      pe_lib
  in
  check Alcotest.int "lcm" 3000 (Periodic.hyperperiod pb)

let test_validation () =
  (try
     ignore (Periodic.problem [] pe_lib);
     fail "no apps"
   with Invalid_argument _ -> ());
  (try
     ignore (Periodic.problem [ mk_app ~seed:1 ~n_tasks:3 ~period:0 ] pe_lib);
     fail "period 0"
   with Invalid_argument _ -> ());
  (* wildly non-harmonic periods blow up the hyperperiod *)
  try
    ignore
      (Periodic.problem
         [ mk_app ~seed:1 ~n_tasks:3 ~period:997;
           mk_app ~seed:2 ~n_tasks:3 ~period:1009;
           mk_app ~seed:3 ~n_tasks:3 ~period:1013 ]
         pe_lib);
    fail "hyperperiod explosion"
  with Invalid_argument _ -> ()

let test_check_empty_pe_set_infeasible () =
  let pb = Periodic.problem [ mk_app ~seed:1 ~n_tasks:3 ~period:1000 ] pe_lib in
  let v = Periodic.check pb ~pe_set:[] in
  check Alcotest.bool "infeasible" false v.Periodic.feasible

let test_check_loose_period_feasible_on_one_slow () =
  (* total slow-PE work per instance ~ a few hundred cycles << period *)
  let pb =
    Periodic.problem [ mk_app ~seed:1 ~n_tasks:3 ~period:5000 ] pe_lib
  in
  let v = Periodic.check pb ~pe_set:[ 1 ] in
  check Alcotest.bool "feasible" true v.Periodic.feasible;
  check Alcotest.bool "lateness negative" true (v.Periodic.max_lateness < 0);
  check Alcotest.bool "utilisation sane" true
    (v.Periodic.utilisation > 0.0 && v.Periodic.utilisation <= 1.0)

let test_check_tight_period_needs_more () =
  (* a period tighter than one instance's serial work on slow *)
  let app = mk_app ~seed:4 ~n_tasks:5 ~period:300 in
  let pb = Periodic.problem [ app ] pe_lib in
  let slow_only = Periodic.check pb ~pe_set:[ 1 ] in
  let fast = Periodic.check pb ~pe_set:[ 0; 0 ] in
  check Alcotest.bool "slow alone infeasible" false slow_only.Periodic.feasible;
  check Alcotest.bool "two fast feasible" true fast.Periodic.feasible;
  check Alcotest.bool "lateness ordered" true
    (fast.Periodic.max_lateness < slow_only.Periodic.max_lateness)

let test_more_pes_never_hurt () =
  let pb =
    Periodic.problem
      [ mk_app ~seed:5 ~n_tasks:4 ~period:600;
        mk_app ~seed:6 ~n_tasks:4 ~period:1200 ]
      pe_lib
  in
  let one = Periodic.check pb ~pe_set:[ 1 ] in
  let two = Periodic.check pb ~pe_set:[ 1; 1 ] in
  let three = Periodic.check pb ~pe_set:[ 1; 1; 0 ] in
  check Alcotest.bool "2 >= 1" true
    (two.Periodic.max_lateness <= one.Periodic.max_lateness);
  check Alcotest.bool "3 >= 2" true
    (three.Periodic.max_lateness <= two.Periodic.max_lateness)

let test_synthesize_reaches_feasibility () =
  let pb =
    Periodic.problem
      [ mk_app ~seed:7 ~n_tasks:5 ~period:500;
        mk_app ~seed:8 ~n_tasks:4 ~period:1000 ]
      pe_lib
  in
  let s = Periodic.synthesize pb in
  check Alcotest.bool "feasible" true s.Periodic.verdict.Periodic.feasible;
  check Alcotest.bool "non-empty" true (s.Periodic.pe_set <> []);
  check Alcotest.int "price consistent"
    (List.fold_left
       (fun acc t -> acc + (List.nth pe_lib t).Cosynth.price)
       0 s.Periodic.pe_set)
    s.Periodic.price

let test_synthesize_cheap_when_loose () =
  let pb =
    Periodic.problem [ mk_app ~seed:9 ~n_tasks:3 ~period:50_000 ] pe_lib
  in
  let s = Periodic.synthesize pb in
  check Alcotest.bool "single cheap PE suffices" true
    (s.Periodic.price <= 20 && s.Periodic.verdict.Periodic.feasible)

let test_synthesize_scales_price_with_load () =
  let loose =
    Periodic.synthesize
      (Periodic.problem [ mk_app ~seed:10 ~n_tasks:4 ~period:20_000 ] pe_lib)
  in
  let tight =
    Periodic.synthesize
      (Periodic.problem [ mk_app ~seed:10 ~n_tasks:4 ~period:400 ] pe_lib)
  in
  check Alcotest.bool "tight load costs more" true
    (tight.Periodic.price >= loose.Periodic.price);
  check Alcotest.bool "both feasible" true
    (loose.Periodic.verdict.Periodic.feasible
    && tight.Periodic.verdict.Periodic.feasible)

let prop_utilisation_bounded =
  QCheck.Test.make ~name:"feasible schedules never exceed capacity"
    ~count:60
    QCheck.(triple (int_range 1 300) (int_range 2 5) (int_range 300 5000))
    (fun (seed, n_tasks, period) ->
      let pb = Periodic.problem [ mk_app ~seed ~n_tasks ~period ] pe_lib in
      let v1 = Periodic.check pb ~pe_set:[ 1 ] in
      let v2 = Periodic.check pb ~pe_set:[ 0; 1 ] in
      ((not v1.Periodic.feasible) || v1.Periodic.utilisation <= 1.0 +. 1e-9)
      && ((not v2.Periodic.feasible) || v2.Periodic.utilisation <= 1.0 +. 1e-9))

let () =
  Alcotest.run "codesign_periodic"
    [
      ( "periodic",
        [
          Alcotest.test_case "hyperperiod" `Quick test_hyperperiod;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "empty pe set" `Quick
            test_check_empty_pe_set_infeasible;
          Alcotest.test_case "loose period feasible" `Quick
            test_check_loose_period_feasible_on_one_slow;
          Alcotest.test_case "tight period needs more" `Quick
            test_check_tight_period_needs_more;
          Alcotest.test_case "more PEs never hurt" `Quick
            test_more_pes_never_hurt;
          Alcotest.test_case "synthesize feasible" `Quick
            test_synthesize_reaches_feasibility;
          Alcotest.test_case "cheap when loose" `Quick
            test_synthesize_cheap_when_loose;
          Alcotest.test_case "price scales with load" `Quick
            test_synthesize_scales_price_with_load;
          QCheck_alcotest.to_alcotest prop_utilisation_bounded;
        ] );
    ]
