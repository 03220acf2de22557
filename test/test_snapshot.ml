(* Snapshot/restore property tests: for every stateful substrate the
   protocol is [snapshot; perturb; restore] followed by observational
   identity with a twin that was never snapshotted — the snapshot must
   capture everything observable, and restore must not leak anything
   from the perturbation timeline.  Plus the campaign-level property the
   machinery exists for: the fork engine's report is byte-identical to
   the rerun engine's per seed. *)

module Rng = Codesign_ir.Rng
module K = Codesign_sim.Kernel
module EQ = Codesign_sim.Event_queue
module Ch = Codesign_sim.Channel
module N = Codesign_rtl.Netlist
module L = Codesign_rtl.Logic_sim
module Cpu = Codesign_isa.Cpu
module Codegen = Codesign_isa.Codegen
module Asm = Codesign_isa.Asm
module Gen = Codesign_fuzz.Gen
module F = Codesign_fault
module FR = Codesign_obs.Fault_report
module Json = Codesign_obs.Json

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Cpu                                                                 *)
(* ------------------------------------------------------------------ *)

let cpu_obs c =
  ( Cpu.pc c,
    Cpu.cycles c,
    Cpu.instret c,
    (match Cpu.status c with
    | Cpu.Running -> "R"
    | Cpu.Halted -> "H"
    | Cpu.Trapped m -> "T:" ^ m),
    List.init 8 (fun r -> Cpu.reg c r),
    List.init 64 (fun a -> Cpu.read_mem c (a * 97)) )

let test_cpu_snapshot_restore () =
  let n_checked = ref 0 in
  for seed = 0 to 59 do
    let p = Gen.behavior (Rng.create (31_000 + seed)) in
    match Codegen.compile p with
    | exception Invalid_argument _ -> ()
    | items, _lay -> (
        match Asm.assemble items with
        | exception Invalid_argument _ -> ()
        | img ->
            incr n_checked;
            let a = Cpu.create img.Asm.code in
            let twin = Cpu.create img.Asm.code in
            let rng = Rng.create (77_000 + seed) in
            let prefix = Rng.int rng 400 in
            for _ = 1 to prefix do
              ignore (Cpu.step a);
              ignore (Cpu.step twin)
            done;
            let snap = Cpu.snapshot a in
            (* perturb: run further, scribble on registers and memory *)
            for _ = 1 to 1 + Rng.int rng 300 do
              ignore (Cpu.step a)
            done;
            Cpu.set_reg a 3 12345;
            Cpu.write_mem a 17 999;
            Cpu.restore a snap;
            if cpu_obs a <> cpu_obs twin then
              fail (Printf.sprintf "seed %d: restore differs from twin" seed);
            (* both timelines must evolve identically from here *)
            for _ = 1 to 500 do
              ignore (Cpu.step a);
              ignore (Cpu.step twin)
            done;
            if cpu_obs a <> cpu_obs twin then
              fail
                (Printf.sprintf
                   "seed %d: post-restore evolution differs from twin" seed))
  done;
  check Alcotest.bool "exercised some programs" true (!n_checked > 20)

let test_cpu_restore_size_mismatch () =
  let prog = [| Codesign_isa.Isa.Halt |] in
  let a = Cpu.create ~mem_words:64 prog in
  let b = Cpu.create ~mem_words:128 prog in
  let snap = Cpu.snapshot a in
  match Cpu.restore b snap with
  | exception Invalid_argument _ -> ()
  | () -> fail "expected Invalid_argument on mem-size mismatch"

(* Memory grows on first write; a snapshot holds only the prefix
   allocated when it was taken, and restoring it must drop whatever
   was written past that prefix since. *)
let test_cpu_restore_drops_growth () =
  let prog = [| Codesign_isa.Isa.Halt |] in
  let c = Cpu.create prog in
  let untouched = Cpu.snapshot c in
  Cpu.write_mem c 60_000 5;
  check Alcotest.int "store landed" 5 (Cpu.read_mem c 60_000);
  Cpu.restore c untouched;
  check Alcotest.int "grown word reads 0 after restore" 0
    (Cpu.read_mem c 60_000);
  (* a snapshot with a small prefix: words inside it come back, words
     past it are dropped *)
  Cpu.write_mem c 3 11;
  let small = Cpu.snapshot c in
  Cpu.write_mem c 3 12;
  Cpu.write_mem c 40_000 13;
  Cpu.restore c small;
  check Alcotest.int "word inside the prefix restored" 11 (Cpu.read_mem c 3);
  check Alcotest.int "word past the prefix dropped" 0 (Cpu.read_mem c 40_000);
  check Alcotest.bool "no access trapped" true (Cpu.status c = Cpu.Running)

(* ------------------------------------------------------------------ *)
(* Logic_sim (compiled and interpreted)                                *)
(* ------------------------------------------------------------------ *)

(* Same random feed-forward netlists as the compiled-equivalence tests:
   gates draw operands from already-driven nets. *)
let gen_netlist rng =
  let b = N.Builder.create ~name:"rand" () in
  let n_inputs = 2 + Rng.int rng 4 in
  let inputs = List.init n_inputs (fun i -> Printf.sprintf "in%d" i) in
  let pool = ref (N.Builder.const0 :: N.Builder.const1 :: []) in
  List.iter (fun nm -> pool := N.Builder.input b nm :: !pool) inputs;
  let pick () = Rng.pick rng !pool in
  let n_gates = 5 + Rng.int rng 45 in
  for _ = 1 to n_gates do
    let out =
      match Rng.int rng 9 with
      | 0 -> N.Builder.gate b N.And [ pick (); pick () ]
      | 1 -> N.Builder.gate b N.Or [ pick (); pick () ]
      | 2 -> N.Builder.gate b N.Xor [ pick (); pick () ]
      | 3 -> N.Builder.gate b N.Nand [ pick (); pick () ]
      | 4 -> N.Builder.gate b N.Nor [ pick (); pick () ]
      | 5 -> N.Builder.gate b N.Not [ pick () ]
      | 6 -> N.Builder.gate b N.Buf [ pick () ]
      | 7 -> N.Builder.gate b N.Mux [ pick (); pick (); pick () ]
      | _ -> N.Builder.gate b N.Dff [ pick () ]
    in
    pool := out :: !pool
  done;
  let n_outputs = 1 + Rng.int rng 3 in
  for i = 0 to n_outputs - 1 do
    N.Builder.output b (Printf.sprintf "out%d" i) (pick ())
  done;
  (N.Builder.finish b, inputs)

let drive rng sim ~inputs =
  List.iter (fun nm -> L.set_input sim nm (Rng.int rng 2)) inputs;
  L.clock_cycle sim

let obs_of net sim =
  ( L.cycles_run sim,
    List.map (fun (nm, _) -> (nm, L.output sim nm)) net.N.outputs )

let test_logic_sim_snapshot_restore () =
  let rng = Rng.create 501 in
  for case = 0 to 99 do
    let net, inputs = gen_netlist rng in
    let a = L.create net in
    let twin = L.create net in
    (* identical prefixes (twin consumes the same input stream) *)
    let prefix_rng_a = Rng.create (1000 + case) in
    let prefix_rng_b = Rng.create (1000 + case) in
    for _ = 1 to 1 + Rng.int rng 10 do
      drive prefix_rng_a a ~inputs;
      drive prefix_rng_b twin ~inputs
    done;
    let snap = L.snapshot a in
    let perturb_rng = Rng.create (2000 + case) in
    for _ = 1 to 1 + Rng.int rng 10 do
      drive perturb_rng a ~inputs
    done;
    L.restore a snap;
    if obs_of net a <> obs_of net twin then
      fail (Printf.sprintf "case %d: compiled restore differs" case);
    let suffix_rng_a = Rng.create (3000 + case) in
    let suffix_rng_b = Rng.create (3000 + case) in
    for _ = 1 to 5 do
      drive suffix_rng_a a ~inputs;
      drive suffix_rng_b twin ~inputs
    done;
    if obs_of net a <> obs_of net twin then
      fail (Printf.sprintf "case %d: compiled post-restore differs" case)
  done

let test_interp_snapshot_restore () =
  let rng = Rng.create 733 in
  for case = 0 to 49 do
    let net, inputs = gen_netlist rng in
    let a = L.Interp.create net in
    let snap_inputs = List.map (fun nm -> (nm, Rng.int rng 2)) inputs in
    List.iter (fun (nm, v) -> L.Interp.set_input a nm v) snap_inputs;
    L.Interp.clock_cycle a;
    let snap = L.Interp.snapshot a in
    let before =
      List.map (fun (nm, _) -> (nm, L.Interp.output a nm)) net.N.outputs
    in
    for _ = 1 to 4 do
      List.iter (fun nm -> L.Interp.set_input a nm (Rng.int rng 2)) inputs;
      L.Interp.clock_cycle a
    done;
    L.Interp.restore a snap;
    let after =
      List.map (fun (nm, _) -> (nm, L.Interp.output a nm)) net.N.outputs
    in
    if before <> after then
      fail (Printf.sprintf "case %d: interp restore differs" case);
    check Alcotest.int
      (Printf.sprintf "case %d: cycles rewound" case)
      1
      (L.Interp.cycles_run a)
  done

(* ------------------------------------------------------------------ *)
(* Event_queue: drain order is part of the snapshot                    *)
(* ------------------------------------------------------------------ *)

let test_event_queue_drain_order () =
  let q = EQ.create () in
  let log = ref [] in
  let ev tag = fun () -> log := tag :: !log in
  (* same-time entries must drain in insertion order, also after a
     restore that rewinds a partial drain *)
  EQ.push q ~time:5 (ev "a");
  EQ.push q ~time:3 (ev "b");
  EQ.push q ~time:5 (ev "c");
  EQ.push q ~time:3 (ev "d");
  EQ.push q ~time:4 (ev "e");
  let snap = EQ.snapshot q in
  let drain () =
    log := [];
    let rec go () =
      match EQ.pop q with
      | Some (_, thunk) ->
          thunk ();
          go ()
      | None -> ()
    in
    go ();
    List.rev !log
  in
  let first = drain () in
  check (Alcotest.list Alcotest.string) "stable time order"
    [ "b"; "d"; "e"; "a"; "c" ] first;
  EQ.restore q snap;
  let second = drain () in
  check (Alcotest.list Alcotest.string) "restored drain repeats" first second;
  (* restore into a partially drained queue *)
  EQ.restore q snap;
  ignore (EQ.pop q);
  ignore (EQ.pop q);
  EQ.restore q snap;
  check (Alcotest.list Alcotest.string) "restore after partial drain" first
    (drain ());
  (* seq counter also rewinds: a fresh same-time push after restore
     still lands after the snapshotted entries *)
  EQ.restore q snap;
  EQ.push q ~time:5 (ev "z");
  check
    (Alcotest.list Alcotest.string)
    "post-restore push ties break last"
    [ "b"; "d"; "e"; "a"; "c"; "z" ]
    (drain ())

(* ------------------------------------------------------------------ *)
(* Kernel: fork discipline (drain, snapshot, re-spawn)                 *)
(* ------------------------------------------------------------------ *)

let test_kernel_fork_discipline () =
  (* a world that runs a workload to quiescence, snapshots, then forks
     twice: both forks must see the same clock and produce the same
     trace as each other *)
  let k = K.create () in
  let trace = ref [] in
  let emit tag = trace := (K.now k, tag) :: !trace in
  K.spawn ~name:"warmup" k (fun () ->
      K.wait 10;
      emit "w1";
      K.wait 5;
      emit "w2");
  ignore (K.run ~bound:K.Quiesce k);
  check Alcotest.int "quiescent at 15" 15 (K.now k);
  let snap = K.snapshot k in
  let fork tag =
    K.restore k snap;
    trace := [];
    K.spawn ~name:tag k (fun () ->
        emit (tag ^ ".start");
        K.wait 7;
        emit (tag ^ ".end"));
    ignore (K.run ~bound:K.Quiesce k);
    (K.now k, List.rev_map snd !trace, List.rev_map fst !trace)
  in
  let t1, tags1, times1 = fork "f" in
  let t2, tags2, times2 = fork "f" in
  check Alcotest.int "forks end at the same time" t1 t2;
  check Alcotest.int "fork resumes at the checkpoint clock" 22 t1;
  check (Alcotest.list Alcotest.string) "fork traces agree" tags1 tags2;
  check (Alcotest.list Alcotest.int) "fork event times agree" times1 times2;
  (* abandoned processes from a fork don't haunt the next one *)
  K.restore k snap;
  K.spawn ~name:"blocked-forever" k (fun () ->
      K.suspend ~register:(fun _ -> ()));
  ignore (K.run ~bound:K.Quiesce k);
  K.restore k snap;
  let st = K.run ~bound:K.Quiesce k in
  check Alcotest.int "restored world is quiescent" 15 st.K.end_time

let test_channel_snapshot_restore () =
  let k = K.create () in
  let c : int Ch.t = Ch.create ~depth:8 k () in
  K.spawn k (fun () ->
      Ch.send c 1;
      Ch.send c 2;
      Ch.send c 3);
  ignore (K.run ~bound:K.Quiesce k);
  let snap = Ch.snapshot c in
  K.spawn k (fun () ->
      check Alcotest.int "recv 1" 1 (Ch.recv c);
      Ch.send c 99);
  ignore (K.run ~bound:K.Quiesce k);
  Ch.restore c snap;
  let got = ref [] in
  K.spawn k (fun () ->
      let x = Ch.recv c in
      let y = Ch.recv c in
      let z = Ch.recv c in
      got := [ x; y; z ]);
  ignore (K.run ~bound:K.Quiesce k);
  check (Alcotest.list Alcotest.int) "restored buffer contents" [ 1; 2; 3 ]
    !got;
  check Alcotest.int "occupancy rewound" 0 (Ch.occupancy c)

(* ------------------------------------------------------------------ *)
(* Campaign: fork engine == rerun engine, byte for byte                *)
(* ------------------------------------------------------------------ *)

let render r = Json.to_string ~pretty:true (FR.to_json r)

let test_campaign_fork_matches_rerun () =
  List.iter
    (fun seed ->
      let fork =
        F.Campaign.run ~seed ~ops:F.Campaign.quick_ops
          ~engine:F.Campaign.Fork ()
      in
      let rerun =
        F.Campaign.run ~seed ~ops:F.Campaign.quick_ops
          ~engine:F.Campaign.Rerun ()
      in
      check Alcotest.string
        (Printf.sprintf "seed %d: fork report == rerun report" seed)
        (render rerun) (render fork))
    [ 42; 7 ]

let test_campaign_fork_sweep_shapes () =
  (* the fork engine must also agree at a boot-heavy shape (large
     warm-up), where forking actually pays *)
  let a = F.Campaign.sweep ~seed:11 ~ops:24 ~warmup:96 F.Campaign.Fork in
  let b = F.Campaign.sweep ~seed:11 ~ops:24 ~warmup:96 F.Campaign.Rerun in
  if a <> b then fail "boot-heavy sweep cells differ between engines";
  check Alcotest.int "cell count"
    (List.length F.Campaign.mechanisms
    * (1 + List.length F.Campaign.default_rates))
    (List.length a)

let () =
  Alcotest.run "codesign_snapshot"
    [
      ( "cpu",
        [
          Alcotest.test_case "snapshot/perturb/restore vs twin" `Quick
            test_cpu_snapshot_restore;
          Alcotest.test_case "mem-size mismatch rejected" `Quick
            test_cpu_restore_size_mismatch;
          Alcotest.test_case "restore drops memory grown since" `Quick
            test_cpu_restore_drops_growth;
        ] );
      ( "logic_sim",
        [
          Alcotest.test_case "compiled snapshot vs twin" `Quick
            test_logic_sim_snapshot_restore;
          Alcotest.test_case "interp snapshot rewinds" `Quick
            test_interp_snapshot_restore;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "event heap drain order" `Quick
            test_event_queue_drain_order;
          Alcotest.test_case "fork discipline" `Quick
            test_kernel_fork_discipline;
          Alcotest.test_case "channel buffer rewinds" `Quick
            test_channel_snapshot_restore;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "fork == rerun (byte-identical)" `Quick
            test_campaign_fork_matches_rerun;
          Alcotest.test_case "fork == rerun (boot-heavy)" `Quick
            test_campaign_fork_sweep_shapes;
        ] );
    ]
