(* Old-vs-new equivalence property tests for the compiled simulation hot
   paths: random netlists through the interpreted vs compiled
   {!Logic_sim} backends, and random fuzz behaviours through a manual
   [Cpu.step] loop vs the block-compiled tier [Cpu.run_blocks] — both
   must be observationally identical (outputs, cycle counts,
   architectural state), including at fuel boundaries that land
   mid-block, on branches into the middle of decoded blocks, and on
   interrupts raised by memory hooks mid-block.  The temporally
   decoupled co-simulation quantum rides on the block tier, so its
   invariants (quantum 1 byte-identical, larger quanta
   checksum-preserving) are pinned here too. *)

module N = Codesign_rtl.Netlist
module L = Codesign_rtl.Logic_sim
module Rng = Codesign_ir.Rng
module Cpu = Codesign_isa.Cpu
module Codegen = Codesign_isa.Codegen
module Asm = Codesign_isa.Asm
module Gen = Codesign_fuzz.Gen

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* random netlists                                                     *)
(* ------------------------------------------------------------------ *)

(* A random feed-forward netlist: gates draw operands from the pool of
   already-driven nets, so the combinational part is a DAG by
   construction; DFF outputs join the pool like any other net. *)
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

let gen_vectors rng n_inputs =
  let n_vecs = 1 + Rng.int rng 12 in
  List.init n_vecs (fun _ -> List.init n_inputs (fun _ -> Rng.int rng 2))

let test_logic_sim_equivalence () =
  let rng = Rng.create 2024 in
  for case = 0 to 199 do
    let net, inputs = gen_netlist rng in
    let vectors = gen_vectors rng (List.length inputs) in
    let compiled = L.create net in
    let interp = L.Interp.create net in
    let r_compiled = L.run_vectors compiled ~inputs vectors in
    let r_interp = L.Interp.run_vectors interp ~inputs vectors in
    if r_compiled <> r_interp then
      fail
        (Printf.sprintf "case %d: compiled and interpreted outputs differ"
           case);
    check Alcotest.int
      (Printf.sprintf "case %d: cycles_run" case)
      (L.Interp.cycles_run interp)
      (L.cycles_run compiled);
    (* the compiled default resets first, so a second identical run is an
       independent experiment with identical waveforms *)
    if L.run_vectors compiled ~inputs vectors <> r_compiled then
      fail (Printf.sprintf "case %d: second run_vectors call differed" case)
  done

let test_logic_sim_eval_equivalence () =
  (* pure combinational evaluation (no clock): eval + output only *)
  let rng = Rng.create 77 in
  for case = 0 to 99 do
    let net, inputs = gen_netlist rng in
    let vec = List.map (fun _ -> Rng.int rng 2) inputs in
    let compiled = L.create net in
    let interp = L.Interp.create net in
    List.iter2 (fun nm v -> L.set_input compiled nm v) inputs vec;
    List.iter2 (fun nm v -> L.Interp.set_input interp nm v) inputs vec;
    L.eval compiled;
    L.Interp.eval interp;
    List.iter
      (fun (nm, _) ->
        check Alcotest.int
          (Printf.sprintf "case %d: output %s" case nm)
          (L.Interp.output interp nm) (L.output compiled nm))
      net.N.outputs
  done

(* ------------------------------------------------------------------ *)
(* step loop vs run_blocks                                            *)
(* ------------------------------------------------------------------ *)

let status_eq a b =
  match (a, b) with
  | Cpu.Running, Cpu.Running | Cpu.Halted, Cpu.Halted -> true
  | Cpu.Trapped x, Cpu.Trapped y -> x = y
  | _ -> false

let show_status = function
  | Cpu.Running -> "Running"
  | Cpu.Halted -> "Halted"
  | Cpu.Trapped m -> "Trapped " ^ m

(* Full architectural-state comparison: status (with trap message),
   cycle and instruction counters, pc, register file and data memory.
   [ref_cpu] is always the precise step-loop machine. *)
let compare_cpus ~where ~mem_words ref_cpu other_cpu =
  if not (status_eq (Cpu.status ref_cpu) (Cpu.status other_cpu)) then
    fail
      (where
         (Printf.sprintf "status %s vs %s"
            (show_status (Cpu.status ref_cpu))
            (show_status (Cpu.status other_cpu))));
  check Alcotest.int (where "cycles") (Cpu.cycles ref_cpu)
    (Cpu.cycles other_cpu);
  check Alcotest.int (where "instret") (Cpu.instret ref_cpu)
    (Cpu.instret other_cpu);
  check Alcotest.int (where "pc") (Cpu.pc ref_cpu) (Cpu.pc other_cpu);
  for r = 0 to Codesign_isa.Isa.n_regs - 1 do
    if Cpu.reg ref_cpu r <> Cpu.reg other_cpu r then
      fail
        (where
           (Printf.sprintf "reg r%d: %d vs %d" r (Cpu.reg ref_cpu r)
              (Cpu.reg other_cpu r)))
  done;
  for a = 0 to mem_words - 1 do
    if Cpu.read_mem ref_cpu a <> Cpu.read_mem other_cpu a then
      fail
        (where
           (Printf.sprintf "mem[%d]: %d vs %d" a (Cpu.read_mem ref_cpu a)
              (Cpu.read_mem other_cpu a)))
  done

let step_loop cpu ~fuel =
  let steps = ref 0 in
  while Cpu.status cpu = Cpu.Running && !steps < fuel do
    ignore (Cpu.step cpu);
    incr steps
  done;
  !steps

(* Memory is allocated on first write and grows as stores land past it.
   A write at the last word grows it to the whole address space up
   front, so a CPU run after [pregrow] is the fully allocated machine
   every growing one must be indistinguishable from. *)
let pregrow ~mem_words cpu =
  Cpu.write_mem cpu (mem_words - 1) 0;
  cpu

let grown where what = where ("pre-grown twin: " ^ what)

(* The step loop and the block tier, each on a CPU from [mk] whose
   memory grows as the program writes and on a pre-grown twin: all four
   must end in the same state.  Returns the growing block-tier CPU. *)
let run_tiers ~where ~mem_words ~fuel mk =
  let step cpu = ignore (step_loop cpu ~fuel); cpu
  and blocks cpu = ignore (Cpu.run_blocks cpu ~fuel); cpu in
  let cpu_step = step (mk ()) and cpu_blocks = blocks (mk ()) in
  compare_cpus ~where ~mem_words cpu_step cpu_blocks;
  compare_cpus ~where:(grown where) ~mem_words
    (step (pregrow ~mem_words (mk ())))
    cpu_step;
  compare_cpus ~where:(grown where) ~mem_words
    (blocks (pregrow ~mem_words (mk ())))
    cpu_blocks;
  cpu_blocks

let test_iss_step_block_equivalence () =
  let mem_words = 65536 in
  let fuel = 200_000 in
  let n_checked = ref 0 in
  let blocks_seen = ref 0 in
  for seed = 0 to 99 do
    let p = Gen.behavior (Rng.create (9000 + seed)) in
    match Codegen.compile p with
    | exception Invalid_argument _ -> ()
    | items, _lay -> (
        match Asm.assemble items with
        | exception Invalid_argument _ -> ()
        | img ->
            incr n_checked;
            let trace_of ~pregrown =
              let out = ref [] in
              let env =
                {
                  Cpu.default_env with
                  Cpu.port_out = (fun pt v -> out := (pt, v) :: !out);
                }
              in
              let cpu = Cpu.create ~mem_words ~env img.Asm.code in
              ((if pregrown then pregrow ~mem_words cpu else cpu), out)
            in
            let cpu_step, trace_step = trace_of ~pregrown:false in
            let cpu_blocks, trace_blocks = trace_of ~pregrown:false in
            let full_step, trace_full_step = trace_of ~pregrown:true in
            let full_blocks, trace_full_blocks = trace_of ~pregrown:true in
            ignore (step_loop cpu_step ~fuel);
            ignore (step_loop full_step ~fuel);
            ignore (Cpu.run_blocks cpu_blocks ~fuel);
            ignore (Cpu.run_blocks full_blocks ~fuel);
            blocks_seen := !blocks_seen + Cpu.blocks_compiled cpu_blocks;
            let where what = Printf.sprintf "seed %d: %s" seed what in
            compare_cpus ~where ~mem_words cpu_step cpu_blocks;
            compare_cpus ~where:(grown where) ~mem_words full_step cpu_step;
            compare_cpus ~where:(grown where) ~mem_words full_blocks
              cpu_blocks;
            if !trace_step <> !trace_blocks then
              fail (where "port traces differ");
            if
              !trace_full_step <> !trace_step
              || !trace_full_blocks <> !trace_blocks
            then fail (grown where "port traces differ"))
  done;
  check Alcotest.bool
    (Printf.sprintf "most behaviours compiled (%d/100)" !n_checked)
    true
    (!n_checked >= 80);
  check Alcotest.bool
    (Printf.sprintf "block tier actually decoded blocks (%d)" !blocks_seen)
    true (!blocks_seen > 0)

(* Fuel boundaries landing mid-block: drive the step loop and the block
   tier in identical odd-sized fuel slices and require identical state
   at {e every} slice boundary — the block tier must stop exactly where
   the interpreter does, resume from the middle of a decoded block, and
   charge the same fuel. *)
let test_iss_block_fuel_slices () =
  let mem_words = 65536 in
  for seed = 0 to 29 do
    let p = Gen.behavior (Rng.create (17_000 + seed)) in
    match Codegen.compile p with
    | exception Invalid_argument _ -> ()
    | items, _lay -> (
        match Asm.assemble items with
        | exception Invalid_argument _ -> ()
        | img ->
            let cpu_step = Cpu.create ~mem_words img.Asm.code in
            let cpu_blocks = Cpu.create ~mem_words img.Asm.code in
            let twin () =
              pregrow ~mem_words (Cpu.create ~mem_words img.Asm.code)
            in
            let full_step = twin () and full_blocks = twin () in
            let slice = 1 + (seed mod 13) in
            let total = ref 0 in
            let continue = ref true in
            while !continue do
              let s1 = step_loop cpu_step ~fuel:slice in
              let s2 = Cpu.run_blocks cpu_blocks ~fuel:slice in
              let where what =
                Printf.sprintf "seed %d slice@%d: %s" seed !total what
              in
              check Alcotest.int (where "fuel consumed") s1 s2;
              check Alcotest.int (grown where "step fuel consumed") s1
                (step_loop full_step ~fuel:slice);
              check Alcotest.int (grown where "block fuel consumed") s2
                (Cpu.run_blocks full_blocks ~fuel:slice);
              compare_cpus ~where ~mem_words cpu_step cpu_blocks;
              total := !total + s1;
              if s1 = 0 || Cpu.status cpu_step <> Cpu.Running
                 || !total > 50_000
              then continue := false
            done;
            (* the twins' whole state, memory included, once per program:
               a full-memory compare at every slice would triple the
               cost of this test *)
            let where what = Printf.sprintf "seed %d end: %s" seed what in
            compare_cpus ~where:(grown where) ~mem_words full_step cpu_step;
            compare_cpus ~where:(grown where) ~mem_words full_blocks
              cpu_blocks)
  done

(* Straight-line fuel sweep: every possible fuel boundary of a single
   block, including 0, mid-block, exactly-at-terminator and past the
   halt. *)
let test_iss_straightline_fuel_sweep () =
  let mem_words = 4096 in
  let src =
    {|
  li r1, 1
  addi r2, r1, 10
  li r3, 3
  sw r3, 100(r0)
  lw r4, 100(r0)
  addi r5, r4, 1
  li r6, 6
  nop
  addi r7, r6, 7
  halt
|}
  in
  let img = Asm.assemble (Asm.parse src) in
  for fuel = 0 to 12 do
    let where what = Printf.sprintf "fuel %d: %s" fuel what in
    ignore
      (run_tiers ~where ~mem_words ~fuel (fun () ->
           Cpu.create ~mem_words img.Asm.code))
  done

(* A branch back into the middle of an already-decoded block: the
   target pc gets its own overlapping block, and both passes (entry
   from the top, entry into the middle) must count cycles exactly like
   the interpreter. *)
let test_iss_branch_into_middle () =
  let mem_words = 4096 in
  let src =
    {|
  li r9, 2
  li r1, 1
mid:
  li r2, 2
  addi r3, r2, 1
  subi r9, r9, 1
  b.ne r9, r0, mid
  halt
|}
  in
  let img = Asm.assemble (Asm.parse src) in
  let where what = Printf.sprintf "branch-into-middle: %s" what in
  let cpu_blocks =
    run_tiers ~where ~mem_words ~fuel:1000 (fun () ->
        Cpu.create ~mem_words img.Asm.code)
  in
  check Alcotest.bool "overlapping block decoded" true
    (Cpu.blocks_compiled cpu_blocks >= 2)

(* An interrupt raised by a memory-mapped read in the middle of a
   block: the hook drives the request line high, so the block tier (which
   runs a hooked CPU on the step loop) must vector at that instruction
   boundary exactly as the interpreter does.  The ISR acknowledges
   through a second memory-mapped read that drives the line low
   again. *)
let test_iss_irq_mid_block () =
  let mem_words = 4096 in
  let src =
    {|
  j main
isr:
  li r5, 1
  lw r6, 3000(r0)
  rti
main:
  ei
  li r1, 1
  addi r2, r1, 1
  lw r3, 2000(r0)
  addi r4, r2, 10
  addi r7, r4, 1
  halt
|}
  in
  let img = Asm.assemble (Asm.parse src) in
  let mk () =
    let cell = ref None in
    let env =
      {
        Cpu.default_env with
        Cpu.mem_read =
          (fun a ->
            match !cell with
            | None -> None
            | Some cpu ->
                if a = 2000 then begin
                  Cpu.set_irq cpu true;
                  Some 7
                end
                else if a = 3000 then begin
                  Cpu.set_irq cpu false;
                  Some 0
                end
                else None);
      }
    in
    let cpu = Cpu.create ~mem_words ~env img.Asm.code in
    cell := Some cpu;
    cpu
  in
  let where what = Printf.sprintf "irq-mid-block: %s" what in
  let cpu_blocks = run_tiers ~where ~mem_words ~fuel:1000 mk in
  check Alcotest.int (where "ISR ran") 1 (Cpu.reg cpu_blocks 5);
  check Alcotest.int (where "mmio value read") 7 (Cpu.reg cpu_blocks 3);
  check Alcotest.int (where "post-irq code ran") 12 (Cpu.reg cpu_blocks 4);
  check Alcotest.int (where "hooked CPU stays on the step loop") 0
    (Cpu.blocks_compiled cpu_blocks)

(* Loads and stores at the edges of memory, on both tiers: below the
   address space, its first word, around the edge of the prefix the
   first store allocates (256 words, or the whole space when smaller),
   its last word and one past it.  The first store sits at word 0, so
   the access under test runs with a prefix already allocated; a load
   past the prefix must read 0 without growing anything, a store there
   must grow it, and every access outside the space must trap with the
   step tier's text.  The straight-line program is one decoded block,
   so the block tier meets every case inside a block.  [read_mem] and
   [write_mem] are held to their own trap texts on the same
   addresses. *)
let test_iss_memory_edges () =
  List.iter
    (fun mem_words ->
      let edge = min 256 mem_words in
      let addrs =
        List.sort_uniq compare
          [ -1; 0; edge - 1; edge; edge + 1; mem_words - 1; mem_words ]
      in
      List.iter
        (fun addr ->
          let src =
            Printf.sprintf
              {|
  li r1, 7
  sw r1, 0(r0)
  li r2, %d
  lw r3, 0(r2)
  li r4, 9
  sw r4, 0(r2)
  lw r5, 0(r2)
  halt
|}
              addr
          in
          let img = Asm.assemble (Asm.parse src) in
          let where what =
            Printf.sprintf "mem_words %d addr %d: %s" mem_words addr what
          in
          let run runner =
            let c = Cpu.create ~mem_words img.Asm.code in
            ignore (runner c);
            c
          in
          let cpu_step = run (fun c -> Cpu.run c) in
          let cpu_blocks = run (fun c -> Cpu.run_compiled c) in
          compare_cpus ~where ~mem_words cpu_step cpu_blocks;
          if mem_words > 0 then begin
            let full runner =
              let c = pregrow ~mem_words (Cpu.create ~mem_words img.Asm.code) in
              ignore (runner c);
              c
            in
            compare_cpus ~where:(grown where) ~mem_words
              (full (fun c -> Cpu.run c)) cpu_step;
            compare_cpus ~where:(grown where) ~mem_words
              (full (fun c -> Cpu.run_compiled c)) cpu_blocks
          end;
          let expected =
            if mem_words = 0 then Cpu.Trapped "mem access 0 at pc 1"
            else if addr < 0 || addr >= mem_words then
              Cpu.Trapped (Printf.sprintf "mem access %d at pc 3" addr)
            else Cpu.Halted
          in
          if not (status_eq expected (Cpu.status cpu_blocks)) then
            fail
              (where
                 (Printf.sprintf "status %s, expected %s"
                    (show_status (Cpu.status cpu_blocks))
                    (show_status expected)));
          if expected = Cpu.Halted then begin
            check Alcotest.int (where "load before the store")
              (if addr = 0 then 7 else 0)
              (Cpu.reg cpu_blocks 3);
            check Alcotest.int (where "load after the store") 9
              (Cpu.reg cpu_blocks 5)
          end;
          (* the host-side accessors on a fresh CPU *)
          let inside = addr >= 0 && addr < mem_words in
          let c = Cpu.create ~mem_words [| Codesign_isa.Isa.Halt |] in
          check Alcotest.int (where "read_mem value") 0 (Cpu.read_mem c addr);
          Cpu.write_mem c addr 5;
          check Alcotest.int (where "write_mem then read_mem")
            (if inside then 5 else 0)
            (Cpu.read_mem c addr);
          let status =
            if inside then Cpu.Running
            else
              Cpu.Trapped
                (Printf.sprintf "Cpu.read_mem: address %d out of range" addr)
          in
          if not (status_eq status (Cpu.status c)) then
            fail
              (where
                 (Printf.sprintf "accessor status %s, expected %s"
                    (show_status (Cpu.status c)) (show_status status)));
          let c = Cpu.create ~mem_words [| Codesign_isa.Isa.Halt |] in
          Cpu.write_mem c addr 5;
          if not inside then
            check Alcotest.string (where "write_mem trap")
              ("Trapped "
              ^ Printf.sprintf "Cpu.write_mem: address %d out of range" addr)
              (show_status (Cpu.status c)))
        addrs)
    [ 0; 16; 4097; 65536 ]

(* ------------------------------------------------------------------ *)
(* temporally decoupled co-simulation quantum                          *)
(* ------------------------------------------------------------------ *)

module Cosim = Codesign.Cosim

let quantum_assignments =
  [
    Cosim.pure Cosim.Pin;
    { Cosim.src = Cosim.Pin; cpu = Cosim.Transaction; sink = Cosim.Driver };
    { Cosim.src = Cosim.Driver; cpu = Cosim.Driver; sink = Cosim.Message };
    Cosim.pure Cosim.Message;
  ]

let assignment_name (a : Cosim.assignment) =
  Printf.sprintf "%s:%s:%s"
    (Cosim.level_name a.Cosim.src)
    (Cosim.level_name a.Cosim.cpu)
    (Cosim.level_name a.Cosim.sink)

(* quantum 1 must be byte-identical to the historic tight coupling:
   the whole metrics record, not just the checksum *)
let test_quantum_one_identical () =
  List.iter
    (fun levels ->
      let m_default = Cosim.run_echo_assignment ~levels () in
      let m_q1 = Cosim.run_echo_assignment ~levels ~quantum:1 () in
      check Alcotest.bool
        (Printf.sprintf "%s: quantum 1 = default (all metrics)"
           (assignment_name levels))
        true
        (m_default = m_q1))
    quantum_assignments

(* larger quanta preserve function and cost less simulator effort *)
let test_quantum_preserves_checksum () =
  List.iter
    (fun levels ->
      let m1 = Cosim.run_echo_assignment ~levels ~quantum:1 () in
      List.iter
        (fun q ->
          let mq = Cosim.run_echo_assignment ~levels ~quantum:q () in
          let name what =
            Printf.sprintf "%s q=%d: %s" (assignment_name levels) q what
          in
          check Alcotest.bool (name "completed") true
            (mq.Cosim.outcome = Cosim.Completed);
          check Alcotest.int (name "checksum") m1.Cosim.checksum
            mq.Cosim.checksum;
          check Alcotest.bool
            (name
               (Printf.sprintf "events %d <= %d" mq.Cosim.events
                  m1.Cosim.events))
            true
            (mq.Cosim.events <= m1.Cosim.events))
        [ 2; 8; 64; 1024 ])
    quantum_assignments

(* pinned golden for one mixed assignment: the decoupled run must keep
   the functional checksum and the simulated completion time of the
   tightly coupled reference while dispatching far fewer events *)
let test_quantum_golden () =
  let levels =
    { Cosim.src = Cosim.Pin; cpu = Cosim.Driver; sink = Cosim.Transaction }
  in
  let m1 = Cosim.run_echo_assignment ~levels ~quantum:1 () in
  let m64 = Cosim.run_echo_assignment ~levels ~quantum:64 () in
  check Alcotest.int "golden: checksum preserved" m1.Cosim.checksum
    m64.Cosim.checksum;
  check Alcotest.int "golden: sim_cycles preserved" m1.Cosim.sim_cycles
    m64.Cosim.sim_cycles;
  check Alcotest.bool
    (Printf.sprintf "golden: events shrink (%d < %d)" m64.Cosim.events
       m1.Cosim.events)
    true
    (m64.Cosim.events < m1.Cosim.events)

let () =
  Alcotest.run "codesign_compiled"
    [
      ( "logic_sim",
        [
          Alcotest.test_case "200 random netlists: interp = compiled" `Quick
            test_logic_sim_equivalence;
          Alcotest.test_case "combinational eval agrees" `Quick
            test_logic_sim_eval_equivalence;
        ] );
      ( "iss",
        [
          Alcotest.test_case "step loop = run_blocks on fuzz behaviours"
            `Quick test_iss_step_block_equivalence;
          Alcotest.test_case "fuel slices land mid-block identically" `Quick
            test_iss_block_fuel_slices;
          Alcotest.test_case "straight-line fuel sweep" `Quick
            test_iss_straightline_fuel_sweep;
          Alcotest.test_case "branch into the middle of a decoded block"
            `Quick test_iss_branch_into_middle;
          Alcotest.test_case "hook-raised interrupt cuts the block" `Quick
            test_iss_irq_mid_block;
          Alcotest.test_case "loads and stores at the memory edges" `Quick
            test_iss_memory_edges;
        ] );
      ( "quantum",
        [
          Alcotest.test_case "quantum 1 is byte-identical to default" `Quick
            test_quantum_one_identical;
          Alcotest.test_case "larger quanta preserve the checksum" `Quick
            test_quantum_preserves_checksum;
          Alcotest.test_case "pinned golden: pin:driver:tlm at quantum 64"
            `Quick test_quantum_golden;
        ] );
    ]
