(* Tests for codesign_workloads: the TGFF-style generator, the DSP
   kernels (differential against the compiled ISS path), and the
   process-network applications. *)

module T = Codesign_ir.Task_graph
module B = Codesign_ir.Behavior
module Tgff = Codesign_workloads.Tgff
module Kernels = Codesign_workloads.Kernels
module Apps = Codesign_workloads.Apps

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Tgff                                                                *)
(* ------------------------------------------------------------------ *)

let test_tgff_basic () =
  let g = Tgff.generate Tgff.default_spec in
  check Alcotest.int "task count" 12 (T.n_tasks g);
  check Alcotest.bool "has edges" true (List.length g.T.edges > 0);
  check Alcotest.bool "deadline set" true (g.T.deadline > 0);
  check Alcotest.bool "deadline tight" true
    (g.T.deadline < T.total_sw_cycles g);
  let has_pred (t : T.task) = T.in_edges g t.T.id <> [] in
  check Alcotest.bool "some sources" true
    (Array.exists (fun t -> not (has_pred t)) g.T.tasks)

let test_tgff_deterministic () =
  let a = Tgff.generate Tgff.default_spec in
  let b = Tgff.generate Tgff.default_spec in
  check Alcotest.bool "same graph for same seed" true (a = b);
  let c = Tgff.generate { Tgff.default_spec with Tgff.seed = 99 } in
  check Alcotest.bool "different seed differs" true (a <> c)

let test_tgff_task_consistency () =
  let g = Tgff.generate { Tgff.default_spec with Tgff.n_tasks = 30; layers = 6 } in
  Array.iter
    (fun (t : T.task) ->
      check Alcotest.bool "hw faster than sw" true
        (t.T.hw_cycles <= t.T.sw_cycles);
      check Alcotest.bool "hw_cycles positive" true (t.T.hw_cycles >= 1);
      check Alcotest.bool "ops non-empty" true (t.T.ops <> []);
      check Alcotest.bool "area consistent with ops" true
        (t.T.hw_area = Codesign_rtl.Estimate.standalone_area t.T.ops))
    g.T.tasks

let test_tgff_archetypes () =
  let g = Tgff.generate { Tgff.default_spec with Tgff.n_tasks = 40; layers = 5 } in
  (* each archetype has its own set of operation kinds *)
  let kinds =
    Array.to_list g.T.tasks
    |> List.map (fun (t : T.task) -> List.sort compare (List.map fst t.T.ops))
    |> List.sort_uniq compare
  in
  (* with 40 tasks all four archetypes should appear *)
  check Alcotest.int "all archetypes" 4 (List.length kinds)

let test_tgff_validation () =
  (try
     ignore (Tgff.generate { Tgff.default_spec with Tgff.n_tasks = 0 });
     fail "n_tasks 0"
   with Invalid_argument _ -> ());
  try
    ignore (Tgff.generate { Tgff.default_spec with Tgff.layers = 99 });
    fail "layers > tasks"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Kernels: every kernel runs identically interpreted and compiled     *)
(* ------------------------------------------------------------------ *)

let test_kernel_differential name proc bindings () =
  let expected = B.run proc bindings in
  let actual, cpu = Codesign_isa.Codegen.run_compiled proc bindings in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    (name ^ " compiled = interpreted")
    expected actual;
  check Alcotest.bool (name ^ " does real work") true
    (Codesign_isa.Cpu.cycles cpu > 50)

let kernel name =
  let _, p, _ = List.find (fun (n, _, _) -> n = name) Kernels.all in
  p

let test_fir_value () =
  (* hand-computed small case: 8 taps, n=8, so only output p=7 runs and
     acc = h0*x7 + h1*x6 (the other taps are 0) *)
  let p = kernel "fir" in
  let r =
    B.run p [ ("n", 8); ("x[6]", 3); ("x[7]", 4); ("h[0]", 1); ("h[1]", 2) ]
  in
  (* 1*4+2*3=10 >>4 = 0 — scale up: *)
  check Alcotest.int "y" 0 (List.assoc "y" r);
  let r2 =
    B.run p
      [ ("n", 8); ("x[6]", 32); ("x[7]", 64); ("h[0]", 2); ("h[1]", 1) ]
  in
  (* 2*64 + 1*32 = 160 >> 4 = 10 *)
  check Alcotest.int "y2" 10 (List.assoc "y" r2)

let test_crc_value () =
  (* crc32 of a single zero word over 8 bit-steps is deterministic; just
     pin the current value as a regression anchor and check non-trivial *)
  let p = kernel "crc32" in
  let r1 = B.run p [ ("data[0]", 0) ] in
  let r2 = B.run p [ ("data[0]", 1) ] in
  check Alcotest.bool "crc differs by input" true
    (List.assoc "crc" r1 <> List.assoc "crc" r2)

let test_matmul_value () =
  let p = kernel "matmul" in
  (* a = [1 2 0; 3 4 0; 0 0 0], b = [5 6 0; 7 8 0; 0 0 0];
     c = [19 22 0; 43 50 0; 0 0 0]; checksum 134 *)
  let binds =
    [ ("a[0]", 1); ("a[1]", 2); ("a[3]", 3); ("a[4]", 4);
      ("b[0]", 5); ("b[1]", 6); ("b[3]", 7); ("b[4]", 8) ]
  in
  check Alcotest.int "checksum" 134
    (List.assoc "checksum" (B.run p binds))

let test_histogram_value () =
  let p = kernel "histogram" in
  let binds =
    [ ("n", 6); ("data[0]", 0); ("data[1]", 1); ("data[2]", 1);
      ("data[3]", 9); ("data[4]", 2); ("data[5]", 17) ]
  in
  (* 8 bins, slots: 0,1,1,1,2,1 -> bin1 has 4 *)
  check Alcotest.int "peak" 4 (List.assoc "peak" (B.run p binds))

let test_saturating_scale_value () =
  let p = kernel "saturating_scale" in
  let binds = [ ("n", 3); ("k", 64); ("x[0]", 100); ("x[1]", -100); ("x[2]", 1) ] in
  let r = B.run p binds in
  (* 100*64>>4 = 400 -> clip 127; -400 -> clip -128; 4 -> 4 *)
  check Alcotest.int "clipped" 2 (List.assoc "clipped" r);
  check Alcotest.int "sum" (127 - 128 + 4) (List.assoc "sum" r)

let test_dct8_energy () =
  let _, p, binds =
    List.find (fun (n, _, _) -> n = "dct8") Kernels.all
  in
  let r = B.run p binds in
  (* dc term y0 must equal (sum * 64) >> 6 = sum of inputs *)
  let sum = List.fold_left (fun a (_, v) -> a + v) 0 binds in
  check Alcotest.int "dc term" sum (List.assoc "y0" r)

let test_kernels_elaborate () =
  (* every kernel elaborates to a valid CDFG with a plausible op mix *)
  List.iter
    (fun (name, p, _) ->
      let g = B.elaborate p in
      check Alcotest.bool (name ^ " has ops") true
        (Codesign_ir.Cdfg.total_ops g > 0))
    Kernels.all

let test_kernels_hls_estimate () =
  List.iter
    (fun (name, p, _) ->
      let est = Codesign_hls.Hls.estimate p in
      check Alcotest.bool (name ^ " area > 0") true
        (est.Codesign_hls.Hls.area > 0);
      check Alcotest.bool (name ^ " cycles > 0") true
        (est.Codesign_hls.Hls.cycles > 0))
    Kernels.all

(* ------------------------------------------------------------------ *)
(* Apps                                                                *)
(* ------------------------------------------------------------------ *)

let test_pipeline_structure () =
  let net = Apps.pipeline ~stages:3 () in
  check Alcotest.int "procs" 5 (List.length net.Codesign_ir.Process_network.procs);
  check Alcotest.int "channels" 4
    (List.length net.Codesign_ir.Process_network.channels)

let test_pipeline_reference () =
  (* the plain-OCaml reference agrees with interpreting the processes *)
  let count = 5 and work = 3 and stages = 1 in
  let expected = Apps.expected_pipeline_output ~count ~work ~stages in
  (* run the three processes sequentially through explicit queues *)
  let q01 = Queue.create () and q12 = Queue.create () in
  let io_prod =
    { B.null_io with B.send = (fun _ v -> Queue.push v q01) }
  in
  ignore (B.run ~io:io_prod (Apps.producer ~chan:"c0" ~count ()) []);
  let io_tr =
    {
      B.null_io with
      B.send = (fun _ v -> Queue.push v q12);
      recv = (fun _ -> Queue.pop q01);
    }
  in
  ignore
    (B.run ~io:io_tr
       (Apps.transform ~in_chan:"c0" ~out_chan:"c1" ~count ~work ())
       []);
  let out = ref 0 in
  let io_cons =
    {
      B.null_io with
      B.recv = (fun _ -> Queue.pop q12);
      port_out = (fun _ v -> out := v);
    }
  in
  ignore (B.run ~io:io_cons (Apps.consumer ~chan:"c1" ~count ~port:1 ()) []);
  check Alcotest.int "reference matches" expected !out

let test_fork_join_structure () =
  let net = Apps.fork_join ~workers:3 ~items:12 () in
  check Alcotest.int "procs" 5 (List.length net.Codesign_ir.Process_network.procs);
  check Alcotest.int "channels" 6
    (List.length net.Codesign_ir.Process_network.channels);
  check Alcotest.int "hw workers" 3
    (List.length (Codesign_ir.Process_network.hw_procs net))

let test_fork_join_uneven_rejected () =
  try
    ignore (Apps.fork_join ~workers:3 ~items:10 ());
    fail "uneven split"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)

let () =
  let kernel_cases =
    List.map
      (fun (name, p, binds) ->
        Alcotest.test_case
          (name ^ " differential") `Quick
          (test_kernel_differential name p binds))
      Kernels.all
  in
  Alcotest.run "codesign_workloads"
    [
      ( "tgff",
        [
          Alcotest.test_case "basic" `Quick test_tgff_basic;
          Alcotest.test_case "deterministic" `Quick test_tgff_deterministic;
          Alcotest.test_case "task consistency" `Quick
            test_tgff_task_consistency;
          Alcotest.test_case "archetypes" `Quick test_tgff_archetypes;
          Alcotest.test_case "validation" `Quick test_tgff_validation;
        ] );
      ("kernels-differential", kernel_cases);
      ( "kernels-values",
        [
          Alcotest.test_case "fir" `Quick test_fir_value;
          Alcotest.test_case "crc32" `Quick test_crc_value;
          Alcotest.test_case "matmul" `Quick test_matmul_value;
          Alcotest.test_case "histogram" `Quick test_histogram_value;
          Alcotest.test_case "saturating scale" `Quick
            test_saturating_scale_value;
          Alcotest.test_case "dct8 dc term" `Quick test_dct8_energy;
          Alcotest.test_case "elaborate all" `Quick test_kernels_elaborate;
          Alcotest.test_case "hls estimate all" `Quick
            test_kernels_hls_estimate;
        ] );
      ( "apps",
        [
          Alcotest.test_case "pipeline structure" `Quick
            test_pipeline_structure;
          Alcotest.test_case "pipeline reference" `Quick
            test_pipeline_reference;
          Alcotest.test_case "fork_join structure" `Quick
            test_fork_join_structure;
          Alcotest.test_case "fork_join validation" `Quick
            test_fork_join_uneven_rejected;
        ] );
    ]
