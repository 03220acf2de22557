(* Tests for the codesign_hls library: scheduling, binding, controller
   generation (verified against reference DFG evaluation), and
   whole-behaviour estimation. *)

open Codesign_hls
module C = Codesign_ir.Cdfg
module B = Codesign_ir.Behavior
module F = Codesign_rtl.Fsmd

let check = Alcotest.check
let fail = Alcotest.fail

(* A block computing: r = (a*b) + (c*d); s = (a*b) - c *)
let two_mul_block () =
  C.block_make "bb"
    [
      { C.id = 0; opcode = C.Read "a"; args = [] };
      { C.id = 1; opcode = C.Read "b"; args = [] };
      { C.id = 2; opcode = C.Read "c"; args = [] };
      { C.id = 3; opcode = C.Read "d"; args = [] };
      { C.id = 4; opcode = C.Mul; args = [ 0; 1 ] };
      { C.id = 5; opcode = C.Mul; args = [ 2; 3 ] };
      { C.id = 6; opcode = C.Add; args = [ 4; 5 ] };
      { C.id = 7; opcode = C.Sub; args = [ 4; 2 ] };
      { C.id = 8; opcode = C.Write "r"; args = [ 6 ] };
      { C.id = 9; opcode = C.Write "s"; args = [ 7 ] };
    ]

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let test_asap () =
  let b = two_mul_block () in
  let s = Sched.asap b in
  (* reads at 0 (delay 0), muls start 0 (2 cycles), add at 2 *)
  check Alcotest.int "mul1 start" 0 s.Sched.start.(4);
  check Alcotest.int "mul2 start" 0 s.Sched.start.(5);
  check Alcotest.int "add start" 2 s.Sched.start.(6);
  check Alcotest.int "sub start" 2 s.Sched.start.(7);
  check Alcotest.int "length" 3 s.Sched.length;
  Sched.verify b s

let test_alap () =
  let b = two_mul_block () in
  let s = Sched.alap b ~latency:5 in
  Sched.verify b s;
  check Alcotest.int "length" 5 s.Sched.length;
  (* with slack, ops move late: add/sub finish at 5 *)
  check Alcotest.int "add late" 4 s.Sched.start.(6);
  try
    ignore (Sched.alap b ~latency:1);
    fail "latency below cp"
  with Invalid_argument _ -> ()

let test_mobility () =
  let b = two_mul_block () in
  let m = Sched.mobility b in
  (* at the critical-path latency, ops on the critical path have zero
     mobility *)
  check Alcotest.int "mul1 no slack" 0 m.(4);
  check Alcotest.int "add no slack" 0 m.(6);
  (* a side computation off the critical path has slack: x = a*b; y = a+b *)
  let side =
    C.block_make "side"
      [
        { C.id = 0; opcode = C.Read "a"; args = [] };
        { C.id = 1; opcode = C.Read "b"; args = [] };
        { C.id = 2; opcode = C.Mul; args = [ 0; 1 ] };
        { C.id = 3; opcode = C.Add; args = [ 0; 1 ] };
        { C.id = 4; opcode = C.Write "x"; args = [ 2 ] };
        { C.id = 5; opcode = C.Write "y"; args = [ 3 ] };
      ]
  in
  let ms = Sched.mobility side in
  check Alcotest.int "mul on cp" 0 ms.(2);
  check Alcotest.bool "add off cp has slack" true (ms.(3) > 0)

let test_list_schedule_resource_bound () =
  let b = two_mul_block () in
  (* with one multiplier, the two muls serialise *)
  let s = Sched.list_schedule b ~resources:[ ("mul", 1) ] in
  Sched.verify b s;
  let m1 = s.Sched.start.(4) and m2 = s.Sched.start.(5) in
  check Alcotest.bool "muls disjoint" true (abs (m1 - m2) >= 2);
  check Alcotest.bool "longer than asap" true (s.Sched.length > 3);
  let u = Sched.usage b s in
  check Alcotest.int "peak mul usage" 1 (List.assoc "mul" u);
  (* with two multipliers, as fast as asap *)
  let s2 = Sched.list_schedule b ~resources:[ ("mul", 2) ] in
  check Alcotest.int "asap speed" 3 s2.Sched.length

let test_list_schedule_errors () =
  try
    ignore (Sched.list_schedule (two_mul_block ()) ~resources:[ ("mul", 0) ]);
    fail "zero resource"
  with Invalid_argument _ -> ()

let test_force_directed () =
  let b = two_mul_block () in
  let s = Sched.force_directed b ~latency:5 in
  Sched.verify b s;
  (* FDS with slack should spread the two muls to reduce peak usage *)
  let u = Sched.usage b s in
  check Alcotest.int "peak mul usage 1" 1 (List.assoc "mul" u);
  try
    ignore (Sched.force_directed b ~latency:1);
    fail "latency below cp"
  with Invalid_argument _ -> ()

let test_usage_asap () =
  let b = two_mul_block () in
  let u = Sched.usage b (Sched.asap b) in
  check Alcotest.int "two muls at once" 2 (List.assoc "mul" u);
  check Alcotest.int "alu peak" 2 (List.assoc "alu" u)

let prop_list_schedule_respects_bounds =
  QCheck.Test.make ~name:"list schedule never exceeds resource bounds"
    ~count:100
    QCheck.(pair (int_range 1 3) (int_range 2 14))
    (fun (mul_bound, n_muls) ->
      (* chain of n_muls independent muls feeding one sum tree *)
      let ops = ref [] in
      let id = ref 0 in
      let emit opcode args =
        let i = !id in
        incr id;
        ops := { C.id = i; opcode; args } :: !ops;
        i
      in
      let vals =
        List.init n_muls (fun k ->
            let a = emit (C.Const k) [] in
            let b = emit (C.Const (k + 1)) [] in
            emit C.Mul [ a; b ])
      in
      let sum =
        List.fold_left (fun acc v -> emit C.Add [ acc; v ]) (List.hd vals)
          (List.tl vals)
      in
      ignore (emit (C.Write "out") [ sum ]);
      let b = C.block_make "g" (List.rev !ops) in
      let s = Sched.list_schedule b ~resources:[ ("mul", mul_bound) ] in
      Sched.verify b s;
      let u = Sched.usage b s in
      match List.assoc_opt "mul" u with
      | Some peak -> peak <= mul_bound
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Binding                                                             *)
(* ------------------------------------------------------------------ *)

let test_bind_fu_sharing () =
  let b = two_mul_block () in
  (* serialise muls -> they share one FU *)
  let s = Sched.list_schedule b ~resources:[ ("mul", 1) ] in
  let bd = Bind.bind b s in
  Bind.verify b s bd;
  check Alcotest.int "one mul instance" 1 (List.assoc "mul" bd.Bind.fu_alloc);
  (* asap -> two instances *)
  let s2 = Sched.asap b in
  let bd2 = Bind.bind b s2 in
  Bind.verify b s2 bd2;
  check Alcotest.int "two mul instances" 2
    (List.assoc "mul" bd2.Bind.fu_alloc)

let test_bind_registers () =
  let b = two_mul_block () in
  let s = Sched.asap b in
  let bd = Bind.bind b s in
  check Alcotest.bool "registers allocated" true (bd.Bind.n_registers > 0);
  check Alcotest.bool "areas positive" true
    (Bind.fu_area bd > 0 && Bind.reg_area bd > 0);
  check Alcotest.int "datapath = sum" (Bind.datapath_area bd)
    (Bind.fu_area bd + Bind.reg_area bd + Bind.mux_area bd)

let prop_bind_always_verifies =
  QCheck.Test.make ~name:"binding verifies for random schedules" ~count:100
    QCheck.(int_range 1 4)
    (fun mul_bound ->
      let b = two_mul_block () in
      let s = Sched.list_schedule b ~resources:[ ("mul", mul_bound) ] in
      let bd = Bind.bind b s in
      Bind.verify b s bd;
      true)

(* ------------------------------------------------------------------ *)
(* Controller: generated FSMD matches reference evaluation             *)
(* ------------------------------------------------------------------ *)

let fsmd_matches_reference ?(env = fun _ -> 0) block sched =
  let fsmd = Controller.of_block block sched in
  let expected = Controller.eval_block_reference block ~env in
  (* initial FSMD registers: architectural variables the block reads *)
  let init =
    List.filter_map
      (fun (o : C.op) ->
        match o.C.opcode with
        | C.Read nm when not (String.contains nm ':') -> Some (nm, env nm)
        | _ -> None)
      block.C.ops
  in
  let r = F.run ~regs:init fsmd in
  List.iter
    (fun (var, v) ->
      if not (String.contains var ':') then
        check Alcotest.int ("var " ^ var) v
          (match List.assoc_opt var r.F.final_regs with
          | Some x -> x
          | None -> fail ("missing reg " ^ var)))
    expected;
  r

let test_controller_basic () =
  let b = two_mul_block () in
  let env v =
    match v with "a" -> 3 | "b" -> 4 | "c" -> 5 | "d" -> 6 | _ -> 0
  in
  let r = fsmd_matches_reference ~env b (Sched.asap b) in
  (* 3 body states + commit *)
  check Alcotest.int "cycles" 4 r.F.cycles

let test_controller_serialised () =
  let b = two_mul_block () in
  let env v =
    match v with "a" -> 3 | "b" -> 4 | "c" -> 5 | "d" -> 6 | _ -> 0
  in
  let s = Sched.list_schedule b ~resources:[ ("mul", 1) ] in
  let r = fsmd_matches_reference ~env b s in
  check Alcotest.bool "slower" true (r.F.cycles > 4)

let test_controller_write_read_same_var () =
  (* x = x + 1; y = x * 2  — intra-block write->read through value
     numbering in Behavior.elaborate *)
  let p =
    {
      B.name = "wrsame";
      params = [ "x" ];
      arrays = [];
      results = [ "x"; "y" ];
      body =
        [
          B.Assign ("x", B.Bin (B.Add, B.Var "x", B.Int 1));
          B.Assign ("y", B.Bin (B.Mul, B.Var "x", B.Int 2));
        ];
    }
  in
  let g = B.elaborate p in
  let block = List.hd g.C.blocks in
  let env = function "x" -> 10 | _ -> 0 in
  let r = fsmd_matches_reference ~env block (Sched.asap block) in
  check Alcotest.int "x" 11 (List.assoc "x" r.F.final_regs);
  check Alcotest.int "y" 22 (List.assoc "y" r.F.final_regs)

let test_controller_rejects_memory () =
  let b =
    C.block_make "m"
      [
        { C.id = 0; opcode = C.Const 1; args = [] };
        { C.id = 1; opcode = C.Load "t"; args = [ 0 ] };
      ]
  in
  try
    ignore (Controller.of_block b (Sched.asap b));
    fail "expected memory rejection"
  with Invalid_argument _ -> ()

let test_controller_ports_chans () =
  let b =
    C.block_make "io"
      [
        { C.id = 0; opcode = C.Read "chan:in"; args = [] };
        { C.id = 1; opcode = C.Const 10; args = [] };
        { C.id = 2; opcode = C.Mul; args = [ 0; 1 ] };
        { C.id = 3; opcode = C.Write "chan:out"; args = [ 2 ] };
        { C.id = 4; opcode = C.Write "port:5"; args = [ 2 ] };
      ]
  in
  let fsmd = Controller.of_block b (Sched.asap b) in
  let sent = ref [] and outs = ref [] in
  let env =
    {
      F.null_env with
      F.recv = (fun _ -> 7);
      send = (fun ch v -> sent := (ch, v) :: !sent);
      output = (fun p v -> outs := (p, v) :: !outs);
    }
  in
  ignore (F.run ~env fsmd);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sent" [ ("out", 70) ] !sent;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "port out" [ ("port:5", 70) ] !outs

(* random straight-line expression blocks: generated hardware always
   matches the reference evaluation *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> B.Int i) (int_range (-9) 9);
        oneofl [ B.Var "a"; B.Var "b" ];
      ]
  in
  let op = oneofl [ B.Add; B.Sub; B.Mul; B.And; B.Xor; B.Lt; B.Eq ] in
  let rec e n =
    if n = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (4, map3 (fun o l r -> B.Bin (o, l, r)) op (e (n - 1)) (e (n - 1)));
        ]
  in
  e 3

let prop_hls_hardware_matches_software =
  QCheck.Test.make
    ~name:"synthesised FSMD = interpreter = compiled code" ~count:100
    (QCheck.make
       ~print:(fun (e1, e2, a, b) ->
         Format.asprintf "a=%d b=%d x=%a y=%a" a b B.pp_expr e1 B.pp_expr e2)
       QCheck.Gen.(
         quad gen_expr gen_expr (int_range (-50) 50) (int_range (-50) 50)))
    (fun (e1, e2, a, b) ->
      let p =
        {
          B.name = "tri";
          params = [ "a"; "b" ];
          arrays = [];
          results = [ "x"; "y" ];
          body = [ B.Assign ("x", e1); B.Assign ("y", e2) ];
        }
      in
      let bindings = [ ("a", a); ("b", b) ] in
      (* path 1: interpreter *)
      let expected = B.run p bindings in
      (* path 2: compiled to the ISS *)
      let compiled, _ = Codesign_isa.Codegen.run_compiled p bindings in
      (* path 3: HLS-generated hardware *)
      let g = B.elaborate p in
      let block = List.hd g.C.blocks in
      let fsmd = Controller.of_block block (Sched.asap block) in
      let r = F.run ~regs:bindings fsmd in
      let hw =
        List.map
          (fun (v, _) -> (v, List.assoc v r.F.final_regs))
          expected
      in
      expected = compiled && expected = hw)

(* ------------------------------------------------------------------ *)
(* Hls top level                                                       *)
(* ------------------------------------------------------------------ *)

let fir_proc =
  {
    B.name = "fir4";
    params = [ "x0"; "x1"; "x2"; "x3" ];
    arrays = [];
    results = [ "y" ];
    body =
      [
        B.Assign
          ( "y",
            B.Bin
              ( B.Add,
                B.Bin
                  ( B.Add,
                    B.Bin (B.Mul, B.Var "x0", B.Int 2),
                    B.Bin (B.Mul, B.Var "x1", B.Int 5) ),
                B.Bin
                  ( B.Add,
                    B.Bin (B.Mul, B.Var "x2", B.Int 5),
                    B.Bin (B.Mul, B.Var "x3", B.Int 2) ) ) );
      ];
  }

let test_hls_synthesize_block () =
  let g = B.elaborate fir_proc in
  let block = List.hd g.C.blocks in
  let fsmd, report = Hls.synthesize_block block in
  check Alcotest.bool "latency sane" true (report.Hls.latency >= 3);
  check Alcotest.bool "area positive" true (report.Hls.total_area > 0);
  check Alcotest.int "total = parts"
    (report.Hls.fu_area + report.Hls.reg_area + report.Hls.mux_area
   + report.Hls.ctrl_area)
    report.Hls.total_area;
  (* default resources: 1 multiplier shared by 4 muls *)
  check Alcotest.int "mul alloc" 1 (List.assoc "mul" report.Hls.fu_alloc);
  (* and the hardware still computes the right answer *)
  let r =
    F.run ~regs:[ ("x0", 1); ("x1", 2); ("x2", 3); ("x3", 4) ] fsmd
  in
  check Alcotest.int "fir" (2 + 10 + 15 + 8) (List.assoc "y" r.F.final_regs)

let test_hls_resource_latency_tradeoff () =
  let g = B.elaborate fir_proc in
  let block = List.hd g.C.blocks in
  let report scheduler = snd (Hls.synthesize_block ~scheduler block) in
  let fast = report (Hls.List_sched [ ("mul", 4) ]) in
  let slow = report (Hls.List_sched [ ("mul", 1) ]) in
  check Alcotest.bool "more FUs -> faster" true
    (fast.Hls.latency < slow.Hls.latency);
  check Alcotest.bool "more FUs -> bigger" true
    (fast.Hls.fu_area > slow.Hls.fu_area)

let test_hls_estimate_behavior () =
  let p =
    {
      B.name = "loopy";
      params = [];
      arrays = [];
      results = [ "s" ];
      body =
        [
          B.Assign ("s", B.Int 0);
          B.For
            ( "i",
              B.Int 0,
              B.Int 16,
              [
                B.Assign
                  ( "s",
                    B.Bin (B.Add, B.Var "s", B.Bin (B.Mul, B.Var "i", B.Var "i"))
                  );
              ] );
        ];
    }
  in
  let est = Hls.estimate p in
  check Alcotest.bool "blocks" true (est.Hls.n_blocks >= 2);
  check Alcotest.bool "cycles weighted by trip" true (est.Hls.cycles > 16);
  check Alcotest.bool "area positive" true (est.Hls.area > 0);
  check Alcotest.bool "mix has mul" true (List.mem_assoc "mul" est.Hls.mix);
  (* hardware should beat software on this kernel *)
  let _, cpu = Codesign_isa.Codegen.run_compiled p [] in
  check Alcotest.bool "hw faster than sw" true
    (est.Hls.cycles < Codesign_isa.Cpu.cycles cpu)

let test_hls_estimate_scheduler_sensitivity () =
  (* [estimate] charges each block its default-resource latency per
     trip; a datapath with more units per class is faster and bigger on
     every block *)
  let blocks = (B.elaborate fir_proc).C.blocks in
  let total f = List.fold_left (fun acc b -> acc + f b) 0 blocks in
  check Alcotest.int "cycles = trip-weighted block latencies"
    (total (fun b -> b.C.trip * (Hls.estimate_block b).Hls.latency))
    (Hls.estimate fir_proc).Hls.cycles;
  let report scheduler b = snd (Hls.synthesize_block ~scheduler b) in
  let small = report (Hls.List_sched [ ("mul", 1); ("alu", 1) ])
  and big = report (Hls.List_sched [ ("mul", 4); ("alu", 4) ]) in
  check Alcotest.bool "bigger datapath is faster" true
    (total (fun b -> (big b).Hls.latency)
    <= total (fun b -> (small b).Hls.latency));
  check Alcotest.bool "bigger datapath costs more" true
    (total (fun b -> (big b).Hls.total_area)
    >= total (fun b -> (small b).Hls.total_area))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "codesign_hls"
    [
      ( "sched",
        [
          Alcotest.test_case "asap" `Quick test_asap;
          Alcotest.test_case "alap" `Quick test_alap;
          Alcotest.test_case "mobility" `Quick test_mobility;
          Alcotest.test_case "list schedule bound" `Quick
            test_list_schedule_resource_bound;
          Alcotest.test_case "list schedule errors" `Quick
            test_list_schedule_errors;
          Alcotest.test_case "force directed" `Quick test_force_directed;
          Alcotest.test_case "usage asap" `Quick test_usage_asap;
          QCheck_alcotest.to_alcotest prop_list_schedule_respects_bounds;
        ] );
      ( "bind",
        [
          Alcotest.test_case "fu sharing" `Quick test_bind_fu_sharing;
          Alcotest.test_case "registers" `Quick test_bind_registers;
          QCheck_alcotest.to_alcotest prop_bind_always_verifies;
        ] );
      ( "controller",
        [
          Alcotest.test_case "basic" `Quick test_controller_basic;
          Alcotest.test_case "serialised" `Quick test_controller_serialised;
          Alcotest.test_case "write then read" `Quick
            test_controller_write_read_same_var;
          Alcotest.test_case "rejects memory" `Quick
            test_controller_rejects_memory;
          Alcotest.test_case "ports and channels" `Quick
            test_controller_ports_chans;
          QCheck_alcotest.to_alcotest prop_hls_hardware_matches_software;
        ] );
      ( "hls",
        [
          Alcotest.test_case "synthesize block" `Quick
            test_hls_synthesize_block;
          Alcotest.test_case "resource/latency tradeoff" `Quick
            test_hls_resource_latency_tradeoff;
          Alcotest.test_case "estimate behavior" `Quick
            test_hls_estimate_behavior;
          Alcotest.test_case "scheduler sensitivity" `Quick
            test_hls_estimate_scheduler_sensitivity;
        ] );
    ]
