(* Integration tests for the end-to-end co-design flows: ASIP synthesis
   (§4.3/4.4), the co-simulation abstraction ladder (§3.1/Fig. 3), and
   multi-threaded co-processor synthesis (§4.5/4.6). *)

open Codesign
module B = Codesign_ir.Behavior
module Pn = Codesign_ir.Process_network
module Kernels = Codesign_workloads.Kernels
module Apps = Codesign_workloads.Apps

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* ASIP                                                                *)
(* ------------------------------------------------------------------ *)

let test_asip_patterns_distinct () =
  let ids = List.map (fun p -> p.Asip.pid) Asip.patterns in
  check Alcotest.bool "unique pids" true
    (List.length (List.sort_uniq compare ids) = List.length ids)

let test_asip_occurrences_fir () =
  let _, fir, _ = List.find (fun (n, _, _) -> n = "fir") Kernels.all in
  let occs = Asip.occurrences fir in
  (* the fir inner loop is a textbook MAC *)
  check Alcotest.bool "mac found" true
    (List.exists (fun (p, n) -> p.Asip.pname = "mac" && n > 0) occs)

let test_asip_rewrite_preserves_semantics () =
  (* interpreter-level check on every kernel: rewritten + ext evaluator
     produces identical results *)
  List.iter
    (fun (name, proc, binds) ->
      let occs = Asip.occurrences proc in
      let pats = List.map fst occs in
      let rewritten = Asip.rewrite proc pats in
      let expected = B.run proc binds in
      let actual = B.run ~ext:(Asip.ext_evaluator pats) rewritten binds in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
        (name ^ " rewrite preserves semantics")
        expected actual)
    Kernels.all

let test_asip_design_fir () =
  let _, fir, binds = List.find (fun (n, _, _) -> n = "fir") Kernels.all in
  let r = Asip.design fir binds in
  check Alcotest.bool "verified" true r.Asip.verified;
  check Alcotest.bool "selected something" true (r.Asip.selected <> []);
  check Alcotest.bool "speedup > 1.05" true (r.Asip.speedup > 1.05);
  check Alcotest.bool "area within budget" true (r.Asip.fu_area <= 800)

let test_asip_design_all_kernels_verified () =
  List.iter
    (fun (name, proc, binds) ->
      let r = Asip.design proc binds in
      check Alcotest.bool (name ^ " verified") true r.Asip.verified;
      check Alcotest.bool (name ^ " no slowdown") true
        (r.Asip.asip_cycles <= r.Asip.base_cycles))
    Kernels.all

let test_asip_budget_zero_selects_nothing () =
  let _, fir, binds = List.find (fun (n, _, _) -> n = "fir") Kernels.all in
  let r = Asip.design ~budget:0 fir binds in
  check Alcotest.bool "nothing selected" true (r.Asip.selected = []);
  check Alcotest.int "no change" r.Asip.base_cycles r.Asip.asip_cycles

let test_asip_budget_monotone () =
  let _, fir, binds = List.find (fun (n, _, _) -> n = "fir") Kernels.all in
  let small = Asip.design ~budget:100 fir binds in
  let large = Asip.design ~budget:2000 fir binds in
  check Alcotest.bool "more budget, >= speedup" true
    (large.Asip.speedup >= small.Asip.speedup -. 1e-9)

let test_asip_knapsack_respects_budget () =
  let occs =
    List.map (fun p -> (p, 100)) Asip.patterns
  in
  let sel = Asip.select ~budget:400 occs in
  let area = List.fold_left (fun a p -> a + p.Asip.area) 0 sel in
  check Alcotest.bool "within budget" true (area <= 400);
  check Alcotest.bool "non-empty" true (sel <> []);
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Asip.select: negative budget") (fun () ->
      ignore (Asip.select ~budget:(-1) occs))

let test_asip_reconfig () =
  (* two apps with disjoint hot patterns: a MAC-heavy one and a
     shift/xor-heavy one; a small fabric cannot host both statically *)
  let _, fir, fir_b = List.find (fun (n, _, _) -> n = "fir") Kernels.all in
  let _, crc, crc_b = List.find (fun (n, _, _) -> n = "crc32") Kernels.all in
  let out =
    Asip.Reconfig.compare ~capacity:400 ~reconfig_cost:100
      [ (fir, fir_b); (crc, crc_b); (fir, fir_b); (crc, crc_b) ]
  in
  check Alcotest.bool "reconfigured at least once" true
    (out.Asip.Reconfig.reconfigurations >= 1);
  check Alcotest.bool "some winner" true
    (out.Asip.Reconfig.winner = "static"
    || out.Asip.Reconfig.winner = "dynamic")

let test_asip_reconfig_cost_flips_winner () =
  let _, fir, fir_b = List.find (fun (n, _, _) -> n = "fir") Kernels.all in
  let _, crc, crc_b = List.find (fun (n, _, _) -> n = "crc32") Kernels.all in
  let apps = [ (fir, fir_b); (crc, crc_b) ] in
  let cheap = Asip.Reconfig.compare ~capacity:400 ~reconfig_cost:0 apps in
  let dear =
    Asip.Reconfig.compare ~capacity:400 ~reconfig_cost:10_000_000 apps
  in
  (* dynamic dominates with free reconfiguration; enormous cost must not
     leave dynamic cheaper *)
  check Alcotest.bool "free reconfig: dynamic <= static" true
    (cheap.Asip.Reconfig.dynamic_cycles <= cheap.Asip.Reconfig.static_cycles);
  check Alcotest.string "expensive reconfig: static wins" "static"
    dear.Asip.Reconfig.winner

(* ------------------------------------------------------------------ *)
(* Co-simulation ladder                                                *)
(* ------------------------------------------------------------------ *)

let ladder () =
  List.map
    (fun level ->
      Cosim.run_echo_assignment ~levels:(Cosim.pure level) ~items:8 ~work:4 ())
    [ Cosim.Pin; Cosim.Transaction; Cosim.Driver; Cosim.Message ]

let test_cosim_functional_equivalence () =
  match ladder () with
  | ref :: rest ->
      check Alcotest.bool "nonzero checksum" true (ref.Cosim.checksum <> 0);
      List.iter
        (fun m ->
          check Alcotest.int
            (Cosim.level_name m.Cosim.level ^ " checksum")
            ref.Cosim.checksum m.Cosim.checksum)
        rest
  | [] -> fail "no metrics"

let test_cosim_event_cost_decreases () =
  match ladder () with
  | [ pin; tlm; drv; msg ] ->
      check Alcotest.bool "pin > tlm events" true
        (pin.Cosim.events > tlm.Cosim.events);
      check Alcotest.bool "tlm >= driver events" true
        (tlm.Cosim.events >= drv.Cosim.events);
      check Alcotest.bool "driver > message events" true
        (drv.Cosim.events > msg.Cosim.events);
      (* orders of magnitude between the extremes *)
      check Alcotest.bool "pin >> message" true
        (pin.Cosim.events > 5 * msg.Cosim.events)
  | _ -> fail "expected 4 levels"

let test_cosim_timing_error_grows () =
  match ladder () with
  | [ pin; tlm; drv; msg ] ->
      let err m =
        abs_float
          (float_of_int (m.Cosim.sim_cycles - pin.Cosim.sim_cycles)
          /. float_of_int pin.Cosim.sim_cycles)
      in
      (* every abstraction is within 2x of the reference, but the
         message level is the least accurate *)
      check Alcotest.bool "tlm reasonably close" true (err tlm < 0.5);
      check Alcotest.bool "message least accurate" true
        (err msg >= err tlm);
      check Alcotest.bool "driver within 2x" true (err drv < 1.0)
  | _ -> fail "expected 4 levels"

let test_cosim_bus_ops_visible () =
  match ladder () with
  | [ pin; tlm; drv; msg ] ->
      check Alcotest.bool "pin counts ops" true (pin.Cosim.bus_ops > 0);
      check Alcotest.bool "tlm counts ops" true (tlm.Cosim.bus_ops > 0);
      check Alcotest.bool "driver counts ops" true (drv.Cosim.bus_ops > 0);
      check Alcotest.int "message has no bus" 0 msg.Cosim.bus_ops
  | _ -> fail "expected 4 levels"

(* ------------------------------------------------------------------ *)
(* Process networks through the kernel                                 *)
(* ------------------------------------------------------------------ *)

let test_network_all_sw () =
  let net = Apps.pipeline ~stages:1 ~count:5 ~work:3 () in
  let r = Cosim.run_network net in
  let expected = Apps.expected_pipeline_output ~count:5 ~work:3 ~stages:1 in
  (match r.Cosim.port_writes with
  | [ ("consumer", 1, v) ] -> check Alcotest.int "checksum" expected v
  | _ -> fail "expected one consumer port write");
  check Alcotest.int "no hw" 0 r.Cosim.hw_area;
  check Alcotest.bool "took time" true (r.Cosim.end_time > 0);
  (* consumer's acc is also visible as a software result *)
  check Alcotest.int "sw result" expected
    (List.assoc "acc" (List.assoc "consumer" r.Cosim.sw_results))

let test_network_hw_stage_matches_sw () =
  let mk mapping =
    let net = Apps.pipeline ~stages:1 ~count:5 ~work:3 () in
    Pn.remap net [ ("stage0", mapping) ]
  in
  let rsw = Cosim.run_network (mk Pn.Sw) in
  let rhw = Cosim.run_network (mk Pn.Hw) in
  let v r =
    match r.Cosim.port_writes with
    | [ (_, _, v) ] -> v
    | _ -> fail "one write expected"
  in
  check Alcotest.int "same function" (v rsw) (v rhw);
  check Alcotest.bool "hw has area" true (rhw.Cosim.hw_area > 0);
  check Alcotest.bool "hw stage is faster" true
    (rhw.Cosim.end_time < rsw.Cosim.end_time)

let test_network_engine_serialisation () =
  (* two hw workers on one engine are slower than on two engines *)
  let net = Apps.fork_join ~workers:2 ~items:8 ~work:24 () in
  let both_one =
    Cosim.run_network
      ~hw_engines:[ ("worker0", 0); ("worker1", 0) ]
      net
  in
  let separate =
    Cosim.run_network
      ~hw_engines:[ ("worker0", 0); ("worker1", 1) ]
      net
  in
  check Alcotest.bool "parallel engines faster" true
    (separate.Cosim.end_time < both_one.Cosim.end_time);
  (* functional equality *)
  let v r =
    List.fold_left (fun a (_, _, x) -> a + x) 0 r.Cosim.port_writes
  in
  check Alcotest.int "same output" (v both_one) (v separate)

let test_network_cross_cost_charged () =
  let net = Apps.pipeline ~stages:2 ~count:6 ~work:4 () in
  let net = Pn.remap net [ ("stage0", Pn.Hw); ("stage1", Pn.Hw) ] in
  let colocated =
    Cosim.run_network
      ~hw_engines:[ ("stage0", 0); ("stage1", 0) ]
      ~cross_cost:500 net
  in
  let split =
    Cosim.run_network
      ~hw_engines:[ ("stage0", 0); ("stage1", 1) ]
      ~cross_cost:500 net
  in
  (* splitting the chatty pipeline across engines pays the crossing cost
     on every message *)
  check Alcotest.bool "crossing traffic costs time" true
    (split.Cosim.end_time > colocated.Cosim.end_time)

(* Engine labels are names: any label, negative or large, gives a
   hardware process an engine of its own unless another process carries
   the same label, and an unlabelled process never shares one.  The run
   depends only on which processes share engines. *)
let test_network_engine_labels () =
  let proc name body =
    { B.name; params = []; arrays = []; results = []; body }
  in
  let worker name =
    proc name
      [
        B.Assign ("x", B.Int 0);
        B.For
          ( "i",
            B.Int 0,
            B.Int 50,
            [ B.Assign ("x", B.Bin (B.Add, B.Var "x", B.Var "i")) ] );
        B.PortOut (1, B.Var "x");
      ]
  in
  let pair = Pn.make [ (worker "a", Pn.Hw); (worker "b", Pn.Hw) ] [] in
  let end_time ?cross_cost net engines =
    (Cosim.run_network ~hw_engines:engines ?cross_cost net).Cosim.end_time
  in
  let own = end_time pair [] in
  List.iter
    (fun l ->
      check Alcotest.int
        (Printf.sprintf "label %d alone" l)
        own
        (end_time pair [ ("a", l) ]))
    [ 0; 5; -1; 1001 ];
  check Alcotest.bool "a shared label serialises" true
    (end_time pair [ ("a", 1001); ("b", 1001) ] > own);
  (* a software producer feeding a hardware consumer crosses engines
     whatever the consumer's label *)
  let link =
    Pn.make
      [
        ( proc "producer"
            [ B.For ("i", B.Int 0, B.Int 10, [ B.Send ("c", B.Var "i") ]) ],
          Pn.Sw );
        ( proc "consumer"
            [
              B.For ("i", B.Int 0, B.Int 10, [ B.Recv ("v", "c") ]);
              B.PortOut (1, B.Var "v");
            ],
          Pn.Hw );
      ]
      [
        {
          Pn.cname = "c";
          src = "producer";
          dst = "consumer";
          depth = 1;
          latency = 0;
        };
      ]
  in
  let unlabelled = Cosim.run_network ~cross_cost:100 link in
  check Alcotest.int "the link crosses" 1 unlabelled.Cosim.crossing_channels;
  List.iter
    (fun l ->
      check Alcotest.int
        (Printf.sprintf "consumer on engine %d" l)
        unlabelled.Cosim.end_time
        (end_time ~cross_cost:100 link [ ("consumer", l) ]))
    [ 0; 5; -1; 1001 ]

let test_network_unknown_channel () =
  (* channel names and ports resolve when a process uses them: a network
     naming no such channel builds and runs, and raises Not_found only
     once a process sends on it *)
  let net mapping body =
    {
      Pn.name = "ghosts";
      procs =
        [ ({ B.name = "p"; params = []; arrays = []; results = []; body }, mapping) ];
      channels = [];
    }
  in
  let raises net =
    match Cosim.run_network net with
    | _ -> false
    | exception Not_found -> true
  in
  let ghost = B.Send ("ghost", B.Int 1) in
  check Alcotest.bool "unused name runs" false
    (raises (net Pn.Hw [ B.If (B.Int 0, [ ghost ], []) ]));
  check Alcotest.bool "used name raises" true (raises (net Pn.Hw [ ghost ]));
  (* software reaches channels through ports 100, 101, ... *)
  check Alcotest.bool "unused port runs" false
    (raises (net Pn.Sw [ B.If (B.Int 0, [ B.PortOut (100, B.Int 1) ], []) ]));
  check Alcotest.bool "used port raises" true
    (raises (net Pn.Sw [ B.PortOut (100, B.Int 1) ]))

let test_hw_stmt_cycles_sane () =
  let _, fir, _ = List.find (fun (n, _, _) -> n = "fir") Kernels.all in
  let c = Cosim.hw_stmt_cycles fir in
  check Alcotest.bool "positive and small" true (c >= 1 && c < 100)

(* ------------------------------------------------------------------ *)
(* Coproc                                                              *)
(* ------------------------------------------------------------------ *)

let test_coproc_synthesize_basic () =
  let net = Apps.fork_join ~workers:3 ~items:6 ~work:16 () in
  let d = Coproc.synthesize ~threads:2 net in
  check Alcotest.int "threads" 2 d.Coproc.threads;
  check Alcotest.int "all workers placed" 3
    (List.length d.Coproc.assignment);
  check Alcotest.bool "latency measured" true (d.Coproc.latency > 0);
  check Alcotest.bool "area accumulated" true (d.Coproc.hw_area > 0);
  List.iter
    (fun (_, e) -> check Alcotest.bool "thread in range" true (e >= 0 && e < 2))
    d.Coproc.assignment

let test_coproc_more_threads_not_slower () =
  let net = Apps.fork_join ~workers:3 ~items:6 ~work:24 () in
  let ds = Coproc.sweep_threads ~max_threads:3 net in
  let lat = List.map (fun d -> d.Coproc.latency) ds in
  (match (lat, List.rev lat) with
  | l1 :: _, l3 :: _ ->
      check Alcotest.bool
        (Printf.sprintf "3 threads (%d) beat 1 (%d)" l3 l1)
        true (l3 < l1)
  | _ -> fail "sweep");
  (* same checksum at every thread count *)
  let sums = List.map (fun d -> d.Coproc.checksum) ds in
  check Alcotest.bool "functional invariance" true
    (List.for_all (fun s -> s = List.hd sums) sums)

let test_coproc_comm_aware_helps_pipeline () =
  (* a chatty 3-stage hw pipeline with 2 threads: comm-aware placement
     colocates adjacent stages *)
  let net = Apps.pipeline ~stages:3 ~count:8 ~work:4 () in
  let net =
    Pn.remap net
      [ ("stage0", Pn.Hw); ("stage1", Pn.Hw); ("stage2", Pn.Hw) ]
  in
  let aware = Coproc.synthesize ~threads:2 ~comm_aware:true ~cross_cost:300 net in
  let blind =
    Coproc.synthesize ~threads:2 ~comm_aware:false ~cross_cost:300 net
  in
  check Alcotest.bool
    (Printf.sprintf "comm-aware (%d xing) <= blind (%d xing) crossings"
       aware.Coproc.crossing_channels blind.Coproc.crossing_channels)
    true
    (aware.Coproc.crossing_channels <= blind.Coproc.crossing_channels);
  check Alcotest.bool "comm-aware not slower" true
    (aware.Coproc.latency <= blind.Coproc.latency)

let test_coproc_validation () =
  let all_sw = Apps.pipeline () in
  (try
     ignore (Coproc.synthesize all_sw);
     fail "no hw procs"
   with Invalid_argument _ -> ());
  let net = Apps.fork_join () in
  try
    ignore (Coproc.synthesize ~threads:0 net);
    fail "threads 0"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)

(* With the stack limited to 8,192 words (64 KiB), anything that keeps
   a frame per statement, tick, event or instruction overflows long
   before these runs end: a 100,000-iteration behaviour run directly and
   as a hardware process alone on its kernel (every tick an in-place
   wait that calls its continuation at once), a 4,096-item hardware
   mesh, and a 20,000-item echo whose CPU runs at quantum 1. *)
let test_constant_stack () =
  let limit = (Gc.get ()).Gc.stack_limit in
  Fun.protect
    ~finally:(fun () -> Gc.set { (Gc.get ()) with Gc.stack_limit = limit })
    (fun () ->
      Gc.set { (Gc.get ()) with Gc.stack_limit = 8192 };
      let rec deep d = if d = 0 then 0 else 1 + deep (d - 1) in
      (match deep 100_000 with
      | _ -> fail "the stack limit does not bite"
      | exception Stack_overflow -> ());
      let n = 100_000 in
      let long =
        {
          B.name = "long";
          params = [];
          arrays = [];
          results = [ "s" ];
          body =
            [
              B.For
                ( "i",
                  B.Int 0,
                  B.Int n,
                  [ B.Assign ("s", B.Bin (B.Add, B.Var "s", B.Var "i")) ] );
              B.PortOut (1, B.Var "s");
            ];
        }
      in
      let sum = n * (n - 1) / 2 in
      check Alcotest.int "direct" sum (List.assoc "s" (B.run long []));
      let alone = Cosim.run_network (Pn.make [ (long, Pn.Hw) ] []) in
      check
        Alcotest.(list (triple string int int))
        "hardware process" [ ("long", 1, sum) ] alone.Cosim.port_writes;
      let count = 4096 and work = 2 and stages = 2 in
      let mesh =
        Cosim.run_network (Apps.mesh ~stages ~lanes:2 ~count ~work ())
      in
      let expected =
        Apps.expected_pipeline_output ~count ~work ~stages
      in
      check Alcotest.(list int) "mesh" [ expected; expected ]
        (List.filter_map
           (fun (_, port, v) -> if port = 1 then Some v else None)
           mesh.Cosim.port_writes);
      let echo =
        Cosim.run_echo_assignment ~levels:(Cosim.pure Cosim.Transaction)
          ~items:20_000 ()
      in
      check Alcotest.bool "echo completes" true
        (echo.Cosim.outcome = Cosim.Completed))

let () =
  Alcotest.run "codesign_flows"
    [
      ( "asip",
        [
          Alcotest.test_case "patterns distinct" `Quick
            test_asip_patterns_distinct;
          Alcotest.test_case "occurrences in fir" `Quick
            test_asip_occurrences_fir;
          Alcotest.test_case "rewrite preserves semantics" `Quick
            test_asip_rewrite_preserves_semantics;
          Alcotest.test_case "design fir" `Quick test_asip_design_fir;
          Alcotest.test_case "all kernels verified" `Quick
            test_asip_design_all_kernels_verified;
          Alcotest.test_case "zero budget" `Quick
            test_asip_budget_zero_selects_nothing;
          Alcotest.test_case "budget monotone" `Quick
            test_asip_budget_monotone;
          Alcotest.test_case "knapsack budget" `Quick
            test_asip_knapsack_respects_budget;
          Alcotest.test_case "reconfig" `Quick test_asip_reconfig;
          Alcotest.test_case "reconfig cost flips winner" `Quick
            test_asip_reconfig_cost_flips_winner;
        ] );
      ( "cosim_ladder",
        [
          Alcotest.test_case "functional equivalence" `Quick
            test_cosim_functional_equivalence;
          Alcotest.test_case "event cost decreases" `Quick
            test_cosim_event_cost_decreases;
          Alcotest.test_case "timing error grows" `Quick
            test_cosim_timing_error_grows;
          Alcotest.test_case "bus ops visible" `Quick
            test_cosim_bus_ops_visible;
        ] );
      ( "network",
        [
          Alcotest.test_case "all software" `Quick test_network_all_sw;
          Alcotest.test_case "hw stage matches sw" `Quick
            test_network_hw_stage_matches_sw;
          Alcotest.test_case "engine serialisation" `Quick
            test_network_engine_serialisation;
          Alcotest.test_case "cross cost charged" `Quick
            test_network_cross_cost_charged;
          Alcotest.test_case "engine labels are names" `Quick
            test_network_engine_labels;
          Alcotest.test_case "unknown channel raises on use" `Quick
            test_network_unknown_channel;
          Alcotest.test_case "hw stmt cycles" `Quick
            test_hw_stmt_cycles_sane;
          Alcotest.test_case "long runs in constant stack" `Quick
            test_constant_stack;
        ] );
      ( "coproc",
        [
          Alcotest.test_case "synthesize" `Quick test_coproc_synthesize_basic;
          Alcotest.test_case "threads scale" `Quick
            test_coproc_more_threads_not_slower;
          Alcotest.test_case "comm-aware placement" `Quick
            test_coproc_comm_aware_helps_pipeline;
          Alcotest.test_case "validation" `Quick test_coproc_validation;
        ] );
    ]
