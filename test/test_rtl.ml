(* Tests for the codesign_rtl library: netlists, logic simulation,
   FSMDs, and the sharing-aware area estimator. *)

open Codesign_rtl
module N = Netlist
module F = Fsmd
module E = Estimate
module C = Codesign_ir.Cdfg

let check = Alcotest.check
let fail = Alcotest.fail

let astring_contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec at i = i + nl <= sl && (String.sub s i nl = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Netlist construction and validation                                 *)
(* ------------------------------------------------------------------ *)

let full_adder () =
  let b = N.Builder.create ~name:"fa" () in
  let a = N.Builder.input b "a" in
  let bi = N.Builder.input b "b" in
  let ci = N.Builder.input b "cin" in
  let axb = N.Builder.xor2 b a bi in
  let s = N.Builder.xor2 b axb ci in
  let c1 = N.Builder.and2 b a bi in
  let c2 = N.Builder.and2 b axb ci in
  let co = N.Builder.or2 b c1 c2 in
  N.Builder.output b "sum" s;
  N.Builder.output b "cout" co;
  N.Builder.finish b

let test_netlist_build () =
  let n = full_adder () in
  check Alcotest.int "gates" 5 (N.gate_count n);
  check Alcotest.int "dffs" 0 (N.dff_count n);
  check Alcotest.bool "comb dag" true (N.is_combinational_dag n);
  check Alcotest.bool "area positive" true (N.area n > 0)

let test_netlist_validation () =
  let raw =
    {
      N.name = "bad";
      n_nets = 4;
      gates =
        [
          { N.kind = N.Not; inputs = [ 2 ]; output = 3 };
          { N.kind = N.Buf; inputs = [ 2 ]; output = 3 };
        ];
      inputs = [ ("i", 2) ];
      outputs = [ ("o", 3) ];
    }
  in
  (try
     N.validate raw;
     fail "expected multiple-driver error"
   with Invalid_argument _ -> ());
  let undriven =
    {
      N.name = "bad2";
      n_nets = 4;
      gates = [];
      inputs = [ ("i", 2) ];
      outputs = [ ("o", 3) ];
    }
  in
  try
    N.validate undriven;
    fail "expected undriven output error"
  with Invalid_argument _ -> ()

let test_full_adder_truth_table () =
  let sim = Logic_sim.create (full_adder ()) in
  for a = 0 to 1 do
    for b = 0 to 1 do
      for c = 0 to 1 do
        Logic_sim.set_input sim "a" a;
        Logic_sim.set_input sim "b" b;
        Logic_sim.set_input sim "cin" c;
        Logic_sim.eval sim;
        let total = a + b + c in
        check Alcotest.int
          (Printf.sprintf "sum %d%d%d" a b c)
          (total land 1)
          (Logic_sim.output sim "sum");
        check Alcotest.int
          (Printf.sprintf "cout %d%d%d" a b c)
          (total lsr 1)
          (Logic_sim.output sim "cout")
      done
    done
  done

let test_decoder () =
  let d = N.decoder ~width:4 ~match_value:0b1010 () in
  let sim = Logic_sim.create d in
  for v = 0 to 15 do
    for bit = 0 to 3 do
      Logic_sim.set_input sim (Printf.sprintf "a%d" bit) ((v lsr bit) land 1)
    done;
    Logic_sim.eval sim;
    check Alcotest.int
      (Printf.sprintf "decode %d" v)
      (if v = 0b1010 then 1 else 0)
      (Logic_sim.output sim "hit")
  done

let test_decoder_errors () =
  (try
     ignore (N.decoder ~width:0 ~match_value:0 ());
     fail "width 0"
   with Invalid_argument _ -> ());
  try
    ignore (N.decoder ~width:2 ~match_value:9 ());
    fail "value too wide"
  with Invalid_argument _ -> ()

let test_dff_counter () =
  (* 2-bit counter from dffs: q0' = !q0, q1' = q1 xor q0; built as a raw
     record because the feedback loop through the flops needs nets to be
     named before their drivers exist. *)
  let raw =
    {
      N.name = "cnt";
      n_nets = 8;
      gates =
        [
          (* net 2 = q0, net 3 = q1, net 4 = !q0, net 5 = q1 xor q0 *)
          { N.kind = N.Dff; inputs = [ 4 ]; output = 2 };
          { N.kind = N.Dff; inputs = [ 5 ]; output = 3 };
          { N.kind = N.Not; inputs = [ 2 ]; output = 4 };
          { N.kind = N.Xor; inputs = [ 3; 2 ]; output = 5 };
        ];
      inputs = [];
      outputs = [ ("q0", 2); ("q1", 3) ];
    }
  in
  N.validate raw;
  check Alcotest.bool "comb dag (dff breaks cycle)" true
    (N.is_combinational_dag raw);
  let sim = Logic_sim.create raw in
  let states = ref [] in
  for _ = 1 to 5 do
    Logic_sim.clock_cycle sim;
    states :=
      ((2 * Logic_sim.output sim "q1") + Logic_sim.output sim "q0")
      :: !states
  done;
  check (Alcotest.list Alcotest.int) "counting" [ 1; 2; 3; 0; 1 ]
    (List.rev !states);
  check Alcotest.int "cycles_run" 5 (Logic_sim.cycles_run sim);
  Logic_sim.reset sim;
  Logic_sim.eval sim;
  check Alcotest.int "reset q0" 0 (Logic_sim.output sim "q0")

let test_comb_cycle_rejected () =
  let raw =
    {
      N.name = "cyc";
      n_nets = 4;
      gates =
        [
          { N.kind = N.Not; inputs = [ 3 ]; output = 2 };
          { N.kind = N.Not; inputs = [ 2 ]; output = 3 };
        ];
      inputs = [];
      outputs = [ ("o", 2) ];
    }
  in
  check Alcotest.bool "not a comb dag" false (N.is_combinational_dag raw);
  try
    ignore (Logic_sim.create raw);
    fail "expected combinational-cycle rejection"
  with Invalid_argument _ -> ()

let test_run_vectors () =
  let b = N.Builder.create () in
  let x = N.Builder.input b "x" in
  let y = N.Builder.input b "y" in
  N.Builder.output b "z" (N.Builder.and2 b x y);
  let sim = Logic_sim.create (N.Builder.finish b) in
  let waves =
    Logic_sim.run_vectors sim ~inputs:[ "x"; "y" ]
      [ [ 0; 0 ]; [ 1; 0 ]; [ 1; 1 ]; [ 0; 1 ] ]
  in
  check (Alcotest.list Alcotest.int) "and wave" [ 0; 0; 1; 0 ]
    (List.assoc "z" waves)

let toggle_net () =
  (* q' = !q: a 1-bit toggle whose output depends on carried flop state *)
  {
    N.name = "tgl";
    n_nets = 4;
    gates =
      [
        { N.kind = N.Dff; inputs = [ 3 ]; output = 2 };
        { N.kind = N.Not; inputs = [ 2 ]; output = 3 };
      ];
    inputs = [];
    outputs = [ ("q", 2) ];
  }

let test_run_vectors_resets_state () =
  (* regression: run_vectors used to silently carry DFF/net state across
     calls, so the second experiment started mid-waveform *)
  let sim = Logic_sim.create (toggle_net ()) in
  let vecs = [ []; []; [] ] in
  let first = Logic_sim.run_vectors sim ~inputs:[] vecs in
  check (Alcotest.list Alcotest.int) "first run toggles" [ 1; 0; 1 ]
    (List.assoc "q" first);
  let second = Logic_sim.run_vectors sim ~inputs:[] vecs in
  check (Alcotest.list Alcotest.int) "second run is independent" [ 1; 0; 1 ]
    (List.assoc "q" second);
  check Alcotest.int "cycle counter restarts" 3 (Logic_sim.cycles_run sim)

let test_unknown_signal_names () =
  let sim = Logic_sim.create (toggle_net ()) in
  (try
     Logic_sim.set_input sim "bogus" 1;
     fail "expected Invalid_argument"
   with Invalid_argument m ->
     check Alcotest.bool "set_input names the signal" true
       (astring_contains m "bogus" && astring_contains m "tgl"));
  try
    ignore (Logic_sim.output sim "nope");
    fail "expected Invalid_argument"
  with Invalid_argument m ->
    check Alcotest.bool "output names the signal" true
      (astring_contains m "nope")

let test_hdl_out_netlist () =
  let s = Hdl_out.netlist (full_adder ()) in
  check Alcotest.bool "module header" true
    (String.length s > 20 && String.sub s 0 9 = "module fa")

(* ------------------------------------------------------------------ *)
(* Estimate                                                            *)
(* ------------------------------------------------------------------ *)

let test_fu_need () =
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "need"
    [ ("add", 2); ("mul", 1) ]
    (E.fu_need [ ("add", 7); ("mul", 2); ("sub", 0) ]);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "merge duplicates"
    [ ("add", 3) ]
    (E.fu_need [ ("add", 5); ("add", 4) ])

let test_standalone_area () =
  let a = E.standalone_area [ ("mul", 4) ] in
  (* 1 mul FU (4/4) + overhead *)
  check Alcotest.int "one mul" (320 + 64) a;
  let b = E.standalone_area [ ("mul", 5) ] in
  check Alcotest.int "two muls" (640 + 64) b

let test_incremental_sharing () =
  let inc = E.Incremental.create () in
  let c1 = E.Incremental.add inc ~id:0 [ ("mul", 4); ("add", 4) ] in
  check Alcotest.int "first task pays full" (320 + 32 + 64) c1;
  (* second task with same mix shares everything but overhead *)
  let c2 = E.Incremental.add inc ~id:1 [ ("mul", 4); ("add", 4) ] in
  check Alcotest.int "second task pays only overhead" 64 c2;
  (* a bigger task pays only the delta *)
  let c3 = E.Incremental.add inc ~id:2 [ ("mul", 8) ] in
  check Alcotest.int "delta mul" (320 + 64) c3;
  check Alcotest.int "total" (2 * 320 + 32 + 3 * 64)
    (E.Incremental.total_area inc);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "allocation"
    [ ("add", 1); ("mul", 2) ]
    (E.Incremental.allocation inc);
  (* removing the big task shrinks the allocation *)
  E.Incremental.remove inc ~id:2;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "allocation shrinks"
    [ ("add", 1); ("mul", 1) ]
    (E.Incremental.allocation inc);
  check (Alcotest.list Alcotest.int) "resident" [ 0; 1 ]
    (E.Incremental.resident inc)

let test_incremental_query_no_commit () =
  let inc = E.Incremental.create () in
  ignore (E.Incremental.add inc ~id:0 [ ("add", 4) ]);
  let q = E.Incremental.incremental_cost inc [ ("add", 4) ] in
  check Alcotest.int "query" 64 q;
  check Alcotest.bool "not committed" false (E.Incremental.mem inc ~id:5);
  (* query twice gives same answer (no state change) *)
  check Alcotest.int "stable" q
    (E.Incremental.incremental_cost inc [ ("add", 4) ])

let test_incremental_errors () =
  let inc = E.Incremental.create () in
  ignore (E.Incremental.add inc ~id:0 []);
  (try
     ignore (E.Incremental.add inc ~id:0 []);
     fail "duplicate id"
   with Invalid_argument _ -> ());
  try
    E.Incremental.remove inc ~id:9;
    fail "unknown id"
  with Invalid_argument _ -> ()

let prop_incremental_never_exceeds_standalone =
  QCheck.Test.make ~name:"incremental cost <= standalone cost" ~count:200
    QCheck.(
      small_list
        (pair (oneofl [ "add"; "mul"; "div"; "xor"; "lt" ]) (int_range 0 12)))
    (fun mixes ->
      let inc = E.Incremental.create () in
      let ok = ref true in
      List.iteri
        (fun i mix ->
          let standalone = E.standalone_area mix in
          let incr_cost = E.Incremental.add inc ~id:i mix in
          if incr_cost > standalone then ok := false)
        (List.map (fun m -> [ m ]) mixes);
      !ok)

(* ------------------------------------------------------------------ *)
(* Fsmd                                                                *)
(* ------------------------------------------------------------------ *)

let gcd_fsmd () =
  (* gcd(a,b) by repeated subtraction *)
  F.make ~name:"gcd" ~start:"test"
    [
      {
        F.sname = "test";
        actions = [];
        trans =
          [
            { F.guard = Some (F.Bin (C.Eq, F.Reg "b", F.Const 0)); target = "done" };
            {
              F.guard = Some (F.Bin (C.Lt, F.Reg "a", F.Reg "b"));
              target = "swap";
            };
            { F.guard = None; target = "sub" };
          ];
      };
      {
        F.sname = "swap";
        actions = [ F.Set ("a", F.Reg "b"); F.Set ("b", F.Reg "a") ];
        trans = [ { F.guard = None; target = "test" } ];
      };
      {
        F.sname = "sub";
        actions = [ F.Set ("a", F.Bin (C.Sub, F.Reg "a", F.Reg "b")) ];
        trans = [ { F.guard = None; target = "test" } ];
      };
      { F.sname = "done"; actions = []; trans = [] };
    ]

let test_fsmd_gcd () =
  let m = gcd_fsmd () in
  let r = F.run ~regs:[ ("a", 54); ("b", 24) ] m in
  check Alcotest.int "gcd" 6 (List.assoc "a" r.F.final_regs);
  check Alcotest.string "halt state" "done" r.F.halted_in;
  check Alcotest.bool "took cycles" true (r.F.cycles > 5);
  check (Alcotest.list Alcotest.string) "registers" [ "a"; "b" ]
    (F.registers m)

let test_fsmd_parallel_actions () =
  (* swap must be simultaneous: RHS reads pre-cycle values *)
  let m =
    F.make ~name:"swap" ~start:"s"
      [
        {
          F.sname = "s";
          actions = [ F.Set ("x", F.Reg "y"); F.Set ("y", F.Reg "x") ];
          trans = [];
        };
      ]
  in
  let r = F.run ~regs:[ ("x", 1); ("y", 2) ] m in
  check Alcotest.int "x" 2 (List.assoc "x" r.F.final_regs);
  check Alcotest.int "y" 1 (List.assoc "y" r.F.final_regs)

let test_fsmd_io () =
  let outs = ref [] in
  let env =
    {
      F.null_env with
      F.input = (fun p -> if p = "sensor" then 9 else 0);
      output = (fun p v -> outs := (p, v) :: !outs);
    }
  in
  let m =
    F.make ~name:"io" ~start:"s"
      [
        {
          F.sname = "s";
          actions =
            [
              F.Set ("x", F.Inp "sensor");
              F.AOut ("led", F.Const 1);
            ];
          trans = [ { F.guard = None; target = "t" } ];
        };
        {
          F.sname = "t";
          actions = [ F.AOut ("dbg", F.Bin (C.Mul, F.Reg "x", F.Const 2)) ];
          trans = [];
        };
      ]
  in
  ignore (F.run ~env m);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "outputs" [ ("led", 1); ("dbg", 18) ]
    (List.rev !outs)

let test_fsmd_channels () =
  let sent = ref [] in
  let supply = ref [ 3; 4 ] in
  let env =
    {
      F.null_env with
      F.recv =
        (fun _ ->
          match !supply with
          | x :: rest ->
              supply := rest;
              x
          | [] -> fail "recv underflow");
      send = (fun ch v -> sent := (ch, v) :: !sent);
    }
  in
  let m =
    F.make ~name:"ch" ~start:"r1"
      [
        {
          F.sname = "r1";
          actions = [ F.ARecv ("a", "in") ];
          trans = [ { F.guard = None; target = "r2" } ];
        };
        {
          F.sname = "r2";
          actions = [ F.ARecv ("b", "in") ];
          trans = [ { F.guard = None; target = "s" } ];
        };
        {
          F.sname = "s";
          actions = [ F.ASend ("out", F.Bin (C.Add, F.Reg "a", F.Reg "b")) ];
          trans = [];
        };
      ]
  in
  let r = F.run ~env m in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sent" [ ("out", 7) ] !sent;
  check Alcotest.int "3 cycles" 3 r.F.cycles

let test_fsmd_validation () =
  (try
     ignore
       (F.make ~start:"a"
          [ { F.sname = "a"; actions = []; trans = [] };
            { F.sname = "a"; actions = []; trans = [] } ]);
     fail "dup states"
   with Invalid_argument _ -> ());
  (try
     ignore
       (F.make ~start:"a"
          [
            {
              F.sname = "a";
              actions = [];
              trans = [ { F.guard = None; target = "zzz" } ];
            };
          ]);
     fail "bad target"
   with Invalid_argument _ -> ());
  try
    ignore (F.make ~start:"nope" [ { F.sname = "a"; actions = []; trans = [] } ]);
    fail "bad start"
  with Invalid_argument _ -> ()

let test_fsmd_max_cycles () =
  let m =
    F.make ~name:"spin" ~start:"s"
      [
        {
          F.sname = "s";
          actions = [];
          trans = [ { F.guard = None; target = "s" } ];
        };
      ]
  in
  try
    ignore (F.run ~max_cycles:100 m);
    fail "expected max_cycles trap"
  with Invalid_argument _ -> ()

let test_hdl_out_fsmd () =
  let s = Hdl_out.fsmd (gcd_fsmd ()) in
  check Alcotest.bool "has module" true (String.sub s 0 10 = "module gcd")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "codesign_rtl"
    [
      ( "netlist",
        [
          Alcotest.test_case "build" `Quick test_netlist_build;
          Alcotest.test_case "validation" `Quick test_netlist_validation;
          Alcotest.test_case "full adder truth table" `Quick
            test_full_adder_truth_table;
          Alcotest.test_case "decoder" `Quick test_decoder;
          Alcotest.test_case "decoder errors" `Quick test_decoder_errors;
          Alcotest.test_case "dff counter" `Quick test_dff_counter;
          Alcotest.test_case "comb cycle rejected" `Quick
            test_comb_cycle_rejected;
          Alcotest.test_case "run vectors" `Quick test_run_vectors;
          Alcotest.test_case "run vectors resets state" `Quick
            test_run_vectors_resets_state;
          Alcotest.test_case "unknown signal names reported" `Quick
            test_unknown_signal_names;
          Alcotest.test_case "hdl out" `Quick test_hdl_out_netlist;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "fu need" `Quick test_fu_need;
          Alcotest.test_case "standalone area" `Quick test_standalone_area;
          Alcotest.test_case "incremental sharing" `Quick
            test_incremental_sharing;
          Alcotest.test_case "query without commit" `Quick
            test_incremental_query_no_commit;
          Alcotest.test_case "errors" `Quick test_incremental_errors;
          QCheck_alcotest.to_alcotest
            prop_incremental_never_exceeds_standalone;
        ] );
      ( "fsmd",
        [
          Alcotest.test_case "gcd" `Quick test_fsmd_gcd;
          Alcotest.test_case "parallel actions" `Quick
            test_fsmd_parallel_actions;
          Alcotest.test_case "io" `Quick test_fsmd_io;
          Alcotest.test_case "channels" `Quick test_fsmd_channels;
          Alcotest.test_case "validation" `Quick test_fsmd_validation;
          Alcotest.test_case "max cycles" `Quick test_fsmd_max_cycles;
          Alcotest.test_case "hdl out" `Quick test_hdl_out_fsmd;
        ] );
    ]
