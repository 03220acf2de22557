(* Tests for the codesign_isa library: ISA, assembler, ISS, profiler,
   and the Behavior -> assembly code generator (differentially tested
   against the Behavior interpreter). *)

open Codesign_isa
module B = Codesign_ir.Behavior

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Assembler                                                           *)
(* ------------------------------------------------------------------ *)

let test_assemble_labels () =
  let img =
    Asm.assemble
      [
        Asm.Label "start";
        Asm.Ins (Isa.Li (1, 5));
        Asm.Label "loop";
        Asm.Ins (Isa.Alui (Isa.Sub, 1, 1, 1));
        Asm.Ins (Isa.B (Isa.Ne, 1, 0, "loop"));
        Asm.Ins Isa.Halt;
      ]
  in
  check Alcotest.int "code length" 4 (Array.length img.Asm.code);
  (match img.Asm.code.(2) with
  | Isa.B (Isa.Ne, 1, 0, 1) -> ()
  | _ -> fail "branch target not resolved to index 1");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "symbols"
    [ ("start", 0); ("loop", 1) ]
    img.Asm.symbols

let test_assemble_errors () =
  (try
     ignore (Asm.assemble [ Asm.Ins (Isa.J "nowhere") ]);
     fail "undefined label"
   with Invalid_argument _ -> ());
  (try
     ignore (Asm.assemble [ Asm.Label "a"; Asm.Label "a" ]);
     fail "duplicate label"
   with Invalid_argument _ -> ());
  try
    ignore (Asm.assemble [ Asm.Ins (Isa.Li (99, 0)) ]);
    fail "bad register"
  with Invalid_argument _ -> ()

let test_label_of () =
  let img =
    Asm.assemble
      [
        Asm.Ins Isa.Nop;
        Asm.Label "a";
        Asm.Ins Isa.Nop;
        Asm.Ins Isa.Nop;
        Asm.Label "b";
        Asm.Ins Isa.Halt;
      ]
  in
  check (Alcotest.option Alcotest.string) "before labels" None
    (Asm.label_of img 0);
  check (Alcotest.option Alcotest.string) "in a" (Some "a")
    (Asm.label_of img 2);
  check (Alcotest.option Alcotest.string) "in b" (Some "b")
    (Asm.label_of img 3)

let test_parse_roundtrip () =
  let src =
    {|
start:
  li r1, 10
  li r2, 0
loop:                 ; accumulate
  add r2, r2, r1      # r2 += r1
  subi r1, r1, 1
  b.ne r1, r0, loop
  sw r2, 100(r0)
  lw r3, 100(r0)
  out 7, r3
  halt
|}
  in
  let items = Asm.parse src in
  let printed = Asm.print items in
  let items2 = Asm.parse printed in
  check Alcotest.bool "roundtrip" true (items = items2);
  let img = Asm.assemble items in
  let cpu = Cpu.create img.Asm.code in
  ignore (Cpu.run cpu);
  check Alcotest.int "sum 10..1" 55 (Cpu.read_mem cpu 100)

let test_parse_errors () =
  let bad s =
    try
      ignore (Asm.parse s);
      fail ("expected parse error for: " ^ s)
    with Invalid_argument _ -> ()
  in
  bad "frobnicate r1, r2, r3";
  bad "li r99, 5";
  bad "add r1, r2";
  bad "lw r1, r2";
  bad "b.zz r1, r2, foo"

let test_parse_custom_and_misc () =
  let items = Asm.parse "cust3 r1, r2, r3\n in r4, 9\n ei\n di\n rti\n nop" in
  check Alcotest.int "count" 6 (List.length items);
  match items with
  | Asm.Ins (Isa.Custom (3, 1, 2, 3)) :: Asm.Ins (Isa.In (4, 9)) :: _ -> ()
  | _ -> fail "custom/in parse"

(* ------------------------------------------------------------------ *)
(* CPU                                                                 *)
(* ------------------------------------------------------------------ *)

let run_src ?env src =
  let img = Asm.assemble (Asm.parse src) in
  let cpu = Cpu.create ?env img.Asm.code in
  let st = Cpu.run cpu in
  (cpu, st)

let test_cpu_arith () =
  let cpu, st =
    run_src
      {|
  li r1, 7
  li r2, 3
  add r3, r1, r2
  sub r4, r1, r2
  mul r5, r1, r2
  div r6, r1, r2
  rem r7, r1, r2
  slt r8, r2, r1
  seq r9, r1, r1
  halt
|}
  in
  check Alcotest.bool "halted" true (st = Cpu.Halted);
  check Alcotest.int "add" 10 (Cpu.reg cpu 3);
  check Alcotest.int "sub" 4 (Cpu.reg cpu 4);
  check Alcotest.int "mul" 21 (Cpu.reg cpu 5);
  check Alcotest.int "div" 2 (Cpu.reg cpu 6);
  check Alcotest.int "rem" 1 (Cpu.reg cpu 7);
  check Alcotest.int "slt" 1 (Cpu.reg cpu 8);
  check Alcotest.int "seq" 1 (Cpu.reg cpu 9)

let test_cpu_div_by_zero () =
  let cpu, st = run_src "li r1, 5\n div r2, r1, r0\n rem r3, r1, r0\n halt" in
  check Alcotest.bool "halted" true (st = Cpu.Halted);
  check Alcotest.int "div0" 0 (Cpu.reg cpu 2);
  check Alcotest.int "rem0" 0 (Cpu.reg cpu 3)

let test_cpu_r0_hardwired () =
  let cpu, _ = run_src "li r0, 42\n add r1, r0, r0\n halt" in
  check Alcotest.int "r0 stays 0" 0 (Cpu.reg cpu 0);
  check Alcotest.int "r1" 0 (Cpu.reg cpu 1)

let test_cpu_memory () =
  let cpu, _ =
    run_src "li r1, 123\n li r2, 500\n sw r1, 8(r2)\n lw r3, 8(r2)\n halt"
  in
  check Alcotest.int "roundtrip" 123 (Cpu.reg cpu 3);
  check Alcotest.int "mem" 123 (Cpu.read_mem cpu 508)

let test_cpu_mem_trap () =
  let _, st = run_src "li r1, -5\n lw r2, 0(r1)\n halt" in
  match st with
  | Cpu.Trapped _ -> ()
  | _ -> fail "expected trap on negative address"

let test_cpu_pc_trap () =
  let _, st = run_src "j end\nend:" in
  (* jump to index past the last instruction *)
  match st with Cpu.Trapped _ -> () | _ -> fail "expected pc trap"

let test_cpu_fuel () =
  let img = Asm.assemble (Asm.parse "spin:\n j spin") in
  let cpu = Cpu.create img.Asm.code in
  match Cpu.run ~fuel:100 cpu with
  | Cpu.Trapped msg ->
      check Alcotest.bool "fuel message" true (msg = "fuel exhausted")
  | _ -> fail "expected fuel trap"

let test_cpu_cycles () =
  (* li(1) + mul(3) + lw(2) + sw(2) + halt(1) = 9 *)
  let cpu, _ =
    run_src "li r1, 4\n mul r2, r1, r1\n sw r2, 50(r0)\n lw r3, 50(r0)\n halt"
  in
  check Alcotest.int "cycles" 9 (Cpu.cycles cpu);
  check Alcotest.int "instret" 5 (Cpu.instret cpu)

let test_cpu_taken_branch_penalty () =
  (* taken branch costs 2, untaken 1 *)
  let cpu1, _ = run_src "li r1, 1\n b.eq r1, r0, skip\nskip:\n halt" in
  let cpu2, _ = run_src "li r1, 0\n b.eq r1, r0, skip\nskip:\n halt" in
  check Alcotest.int "untaken" 3 (Cpu.cycles cpu1);
  check Alcotest.int "taken" 4 (Cpu.cycles cpu2)

let test_cpu_jal_jr () =
  let cpu, _ =
    run_src
      {|
  jal r31, sub
  sw r1, 10(r0)
  halt
sub:
  li r1, 77
  jr r31
|}
  in
  check Alcotest.int "returned" 77 (Cpu.read_mem cpu 10)

let test_cpu_ports () =
  let log = ref [] in
  let env =
    {
      Cpu.default_env with
      Cpu.port_in = (fun p -> p * 2);
      port_out = (fun p v -> log := (p, v) :: !log);
    }
  in
  let cpu, _ = run_src ~env "in r1, 21\n out 5, r1\n halt" in
  check Alcotest.int "in" 42 (Cpu.reg cpu 1);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "out" [ (5, 42) ] !log

let test_cpu_custom () =
  let env =
    {
      Cpu.default_env with
      Cpu.custom = (fun ext _old a b -> if ext = 2 then (a * b) + 1 else 0);
      custom_latency = (fun _ -> 4);
    }
  in
  let cpu, _ = run_src ~env "li r1, 6\n li r2, 7\n cust2 r3, r1, r2\n halt" in
  check Alcotest.int "custom result" 43 (Cpu.reg cpu 3);
  (* li + li + cust(4) + halt = 1+1+4+1 *)
  check Alcotest.int "custom latency" 7 (Cpu.cycles cpu)

let test_cpu_interrupt () =
  (* Vector at index 1 (default).  Main enables interrupts then spins;
     the ISR writes a flag and returns; main sees the flag and halts. *)
  let src =
    {|
  j main
isr:
  li r5, 1
  rti
main:
  ei
spin:
  b.eq r5, r0, spin
  halt
|}
  in
  let img = Asm.assemble (Asm.parse src) in
  let cpu = Cpu.create img.Asm.code in
  (* run some steps, then raise the line *)
  for _ = 1 to 10 do
    ignore (Cpu.step cpu)
  done;
  check Alcotest.bool "still spinning" true (Cpu.status cpu = Cpu.Running);
  Cpu.set_irq cpu true;
  ignore (Cpu.step cpu);
  (* interrupt entry *)
  Cpu.set_irq cpu false;
  let st = Cpu.run cpu in
  check Alcotest.bool "halted after isr" true (st = Cpu.Halted);
  check Alcotest.int "isr ran" 1 (Cpu.reg cpu 5)

let test_cpu_irq_disabled_ignored () =
  let src = "li r1, 5\nspin:\n subi r1, r1, 1\n b.ne r1, r0, spin\n halt" in
  let img = Asm.assemble (Asm.parse src) in
  let cpu = Cpu.create img.Asm.code in
  Cpu.set_irq cpu true;
  (* interrupts never enabled: must run to completion *)
  check Alcotest.bool "halted" true (Cpu.run cpu = Cpu.Halted)

let test_cpu_reset () =
  let cpu, _ = run_src "li r1, 9\n sw r1, 30(r0)\n halt" in
  Cpu.reset cpu;
  check Alcotest.int "regs cleared" 0 (Cpu.reg cpu 1);
  check Alcotest.int "pc cleared" 0 (Cpu.pc cpu);
  check Alcotest.int "cycles cleared" 0 (Cpu.cycles cpu);
  check Alcotest.int "memory preserved" 9 (Cpu.read_mem cpu 30);
  check Alcotest.bool "running again" true (Cpu.status cpu = Cpu.Running)

let test_cpu_reset_clears_irq_and_retire () =
  (* regression: a request line latched (and a retirement callback
     installed) during one run must not leak into the next — a reset
     CPU takes no interrupt until set_irq drives the line again *)
  let src =
    {|
  j main
isr:
  li r5, 1
  rti
main:
  ei
  nop
  nop
  halt
|}
  in
  let img = Asm.assemble (Asm.parse src) in
  let cpu = Cpu.create img.Asm.code in
  let retired = ref 0 in
  Cpu.on_retire cpu (fun ~pc:_ ~cycles:_ -> incr retired);
  (* first run: latch the level-sensitive line high and step into the
     ISR, abandoning the run mid-flight with the line still high *)
  Cpu.set_irq cpu true;
  for _ = 1 to 10 do
    ignore (Cpu.step cpu)
  done;
  check Alcotest.int "interrupt taken while line high" 1 (Cpu.reg cpu 5);
  check Alcotest.bool "callback fired" true (!retired > 0);
  Cpu.reset cpu;
  retired := 0;
  check Alcotest.bool "second run halts" true (Cpu.run cpu = Cpu.Halted);
  check Alcotest.int "no stale interrupt after reset" 0 (Cpu.reg cpu 5);
  check Alcotest.int "stale retire callback removed" 0 !retired;
  (* the line still works when driven again after the reset *)
  Cpu.reset cpu;
  Cpu.set_irq cpu true;
  for _ = 1 to 10 do
    ignore (Cpu.step cpu)
  done;
  check Alcotest.int "re-driven line interrupts" 1 (Cpu.reg cpu 5)

(* Memory is allocated on first write, so no [Array.make] rejects a
   negative size any more: [create] must reject it itself. *)
let test_cpu_create_negative_mem () =
  List.iter
    (fun n ->
      match Cpu.create ~mem_words:n [| Isa.Halt |] with
      | exception Invalid_argument m ->
          check Alcotest.bool
            (Printf.sprintf "mem_words %d: message names Cpu.create (%s)" n m)
            true
            (String.starts_with ~prefix:"Cpu.create" m)
      | _ -> fail (Printf.sprintf "mem_words %d accepted" n))
    [ -1; -65536; min_int ]

(* [Cpu.first_mem_difference] against the plain definition: a [read_mem]
   scan of every address of the address space.  The pairs touch
   different extents of memory (so their allocated prefixes differ),
   share nonzero words, write a zero on one side only, and differ
   below, inside and past the shorter prefix, up to the last word. *)
let test_cpu_first_mem_difference () =
  let mem_words = 65536 in
  let scan a b =
    let rec go i =
      if i >= mem_words then None
      else
        let va = Cpu.read_mem a i and vb = Cpu.read_mem b i in
        if va <> vb then Some (i, va, vb) else go (i + 1)
    in
    go 0
  in
  let rng = Codesign_ir.Rng.create 4242 in
  let int n = Codesign_ir.Rng.int rng n in
  let show = function
    | None -> "none"
    | Some (i, x, y) -> Printf.sprintf "mem[%d] %d vs %d" i x y
  in
  let differing = ref 0 in
  for case = 0 to 199 do
    let a = Cpu.create ~mem_words [| Isa.Halt |]
    and b = Cpu.create ~mem_words [| Isa.Halt |] in
    (* each side draws addresses below its own extent *)
    let extents = [| 1; 200; 300; 5000; 40_000; mem_words |] in
    let ext_a = extents.(int 6) and ext_b = extents.(int 6) in
    let common = min ext_a ext_b in
    for _ = 1 to int 5 do
      let addr = int common and v = 1 + int 1000 in
      Cpu.write_mem a addr v;
      Cpu.write_mem b addr v
    done;
    (* a zero stored on one side only grows that side, differs nowhere *)
    if int 2 = 0 then Cpu.write_mem a (int ext_a) 0
    else Cpu.write_mem b (int ext_b) 0;
    (match int 5 with
    | 0 -> ()
    | 1 -> Cpu.write_mem a (int ext_a) (1 + int 9)
    | 2 -> Cpu.write_mem b (int ext_b) (1 + int 9)
    | 3 ->
        let addr = int common in
        Cpu.write_mem a addr (Cpu.read_mem b addr + 1)
    | _ -> Cpu.write_mem (if int 2 = 0 then a else b) (mem_words - 1) 7);
    let expected = scan a b in
    if expected <> None then incr differing;
    let got = Cpu.first_mem_difference a b in
    if got <> expected then
      fail
        (Printf.sprintf "case %d: first_mem_difference %s, full scan %s" case
           (show got) (show expected));
    (* the answer does not depend on the argument order *)
    let swap = Option.map (fun (i, x, y) -> (i, y, x)) expected in
    if Cpu.first_mem_difference b a <> swap then
      fail (Printf.sprintf "case %d: swapped arguments disagree" case);
    if Cpu.status a <> Cpu.Running || Cpu.status b <> Cpu.Running then
      fail (Printf.sprintf "case %d: an access trapped" case)
  done;
  check Alcotest.bool
    (Printf.sprintf "both outcomes exercised (%d of 200 differ)" !differing)
    true
    (!differing > 50 && !differing < 190);
  (* the last word, with one side never written at all *)
  let a = Cpu.create ~mem_words [| Isa.Halt |]
  and b = Cpu.create ~mem_words [| Isa.Halt |] in
  check
    (Alcotest.option (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "untouched CPUs agree" None
    (Cpu.first_mem_difference a b);
  Cpu.write_mem b (mem_words - 1) 3;
  check
    (Alcotest.option (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "difference at the last word"
    (Some (mem_words - 1, 0, 3))
    (Cpu.first_mem_difference a b)

(* ------------------------------------------------------------------ *)
(* Profiler                                                            *)
(* ------------------------------------------------------------------ *)

let test_profiler_hot_loop () =
  let src =
    {|
setup:
  li r1, 100
  li r2, 0
hot:
  add r2, r2, r1
  subi r1, r1, 1
  b.ne r1, r0, hot
cold:
  sw r2, 10(r0)
  halt
|}
  in
  let img = Asm.assemble (Asm.parse src) in
  let cpu = Cpu.create img.Asm.code in
  let prof = Profiler.attach cpu img in
  ignore (Cpu.run cpu);
  check Alcotest.int "totals agree" (Cpu.cycles cpu)
    (Profiler.total_cycles prof);
  (match Profiler.by_label prof with
  | ("hot", _) :: _ -> ()
  | (l, _) :: _ -> fail ("hottest is " ^ l)
  | [] -> fail "empty profile");
  let regions = Profiler.hot_regions ~top:1 prof in
  match regions with
  | [ ("hot", c, f) ] ->
      check Alcotest.bool "dominant" true (f > 0.9);
      check Alcotest.bool "cycles positive" true (c > 300)
  | _ -> fail "expected single hot region"

let test_profiler_entry_region () =
  let img = Asm.assemble (Asm.parse "li r1, 1\n halt") in
  let cpu = Cpu.create img.Asm.code in
  let prof = Profiler.attach cpu img in
  ignore (Cpu.run cpu);
  match Profiler.by_label prof with
  | [ ("<entry>", 2) ] -> ()
  | _ -> fail "expected <entry> aggregation"

let irq_src =
  {|
  j main
isr:
  li r5, 1
  rti
main:
  ei
spin:
  b.eq r5, r0, spin
  halt
|}

(* Regression: interrupt entry burns 2 cycles but used to bypass the
   retirement callback, so [Profiler.total_cycles] drifted below
   [Cpu.cycles] by 2 per interrupt — exactly the kind of silent
   accounting skew a block-compiled tier would have baked in.  The
   entry now reports to the callback (attributed to the interrupted
   pc), so the two counters track exactly on IRQ workloads, under both
   run paths. *)
let test_profiler_irq_total_cycles () =
  let run_with runner =
    let img = Asm.assemble (Asm.parse irq_src) in
    let cpu = Cpu.create img.Asm.code in
    let prof = Profiler.attach cpu img in
    for _ = 1 to 10 do
      ignore (Cpu.step cpu)
    done;
    Cpu.set_irq cpu true;
    ignore (Cpu.step cpu);
    Cpu.set_irq cpu false;
    runner cpu;
    check Alcotest.bool "halted" true (Cpu.status cpu = Cpu.Halted);
    check Alcotest.int "isr ran" 1 (Cpu.reg cpu 5);
    check Alcotest.int "profiler total = cpu cycles" (Cpu.cycles cpu)
      (Profiler.total_cycles prof)
  in
  run_with (fun cpu -> ignore (Cpu.run cpu));
  run_with (fun cpu -> ignore (Cpu.run_blocks cpu ~fuel:100_000))

(* Regression: [Halt] used to advance pc past the halt instruction; it
   now stays on it, so a halted CPU's pc names the halt site (and the
   block tier, snapshots and fuzz state comparisons all agree on it). *)
let test_cpu_halt_pc () =
  let img = Asm.assemble (Asm.parse "li r1, 1\n li r2, 2\n halt") in
  let cpu_step = Cpu.create img.Asm.code in
  ignore (Cpu.run cpu_step);
  check Alcotest.int "pc stays on halt (step)" 2 (Cpu.pc cpu_step);
  let cpu_blocks = Cpu.create img.Asm.code in
  ignore (Cpu.run_blocks cpu_blocks ~fuel:100);
  check Alcotest.int "pc stays on halt (blocks)" 2 (Cpu.pc cpu_blocks)

(* One fuel step = one retired instruction OR one interrupt entry: a
   budget that exhausts exactly at the entry boundary performs the
   entry alone — 2 cycles, nothing retired, pc at the vector — on the
   step loop and on the block tier. *)
let step_loop cpu ~fuel =
  let steps = ref 0 in
  while Cpu.status cpu = Cpu.Running && !steps < fuel do
    ignore (Cpu.step cpu);
    incr steps
  done;
  !steps

let test_cpu_fuel_at_irq_boundary () =
  let with_tier runner =
    let img = Asm.assemble (Asm.parse irq_src) in
    let cpu = Cpu.create img.Asm.code in
    Cpu.set_irq cpu true;
    (* j + ei: two instructions, line already high but masked *)
    ignore (step_loop cpu ~fuel:2);
    check Alcotest.int "prelude retired" 2 (Cpu.instret cpu);
    let cycles_before = Cpu.cycles cpu in
    let consumed = runner cpu 1 in
    check Alcotest.int "one fuel step consumed" 1 consumed;
    check Alcotest.int "entry cycles charged" (cycles_before + 2)
      (Cpu.cycles cpu);
    check Alcotest.int "nothing retired by the entry" 2 (Cpu.instret cpu);
    check Alcotest.int "vectored" 1 (Cpu.pc cpu)
  in
  with_tier (fun cpu fuel -> step_loop cpu ~fuel);
  with_tier (fun cpu fuel -> Cpu.run_blocks cpu ~fuel)

(* ------------------------------------------------------------------ *)
(* Codegen: differential tests against the Behavior interpreter        *)
(* ------------------------------------------------------------------ *)

let differential ?(bindings = []) proc =
  let expected = B.run proc bindings in
  let actual, _cpu = Codegen.run_compiled proc bindings in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    ("compiled = interpreted: " ^ proc.B.name)
    expected actual

let test_cg_arith () =
  differential
    ~bindings:[ ("a", 13); ("b", 5) ]
    {
      B.name = "arith";
      params = [ "a"; "b" ];
      arrays = [];
      results = [ "s"; "d"; "m"; "q"; "r"; "lt"; "le"; "eq"; "ne" ];
      body =
        [
          B.Assign ("s", B.Bin (B.Add, B.Var "a", B.Var "b"));
          B.Assign ("d", B.Bin (B.Sub, B.Var "a", B.Var "b"));
          B.Assign ("m", B.Bin (B.Mul, B.Var "a", B.Var "b"));
          B.Assign ("q", B.Bin (B.Div, B.Var "a", B.Var "b"));
          B.Assign ("r", B.Bin (B.Rem, B.Var "a", B.Var "b"));
          B.Assign ("lt", B.Bin (B.Lt, B.Var "a", B.Var "b"));
          B.Assign ("le", B.Bin (B.Le, B.Var "a", B.Var "b"));
          B.Assign ("eq", B.Bin (B.Eq, B.Var "a", B.Var "b"));
          B.Assign ("ne", B.Bin (B.Ne, B.Var "a", B.Var "b"));
        ];
    }

let test_cg_bitwise_neg_not () =
  differential
    ~bindings:[ ("a", 0b1100); ("b", 0b1010) ]
    {
      B.name = "bits";
      params = [ "a"; "b" ];
      arrays = [];
      results = [ "x"; "y"; "z"; "sl"; "sr"; "n"; "nt"; "nt0" ];
      body =
        [
          B.Assign ("x", B.Bin (B.And, B.Var "a", B.Var "b"));
          B.Assign ("y", B.Bin (B.Or, B.Var "a", B.Var "b"));
          B.Assign ("z", B.Bin (B.Xor, B.Var "a", B.Var "b"));
          B.Assign ("sl", B.Bin (B.Shl, B.Var "a", B.Int 2));
          B.Assign ("sr", B.Bin (B.Shr, B.Var "a", B.Int 1));
          B.Assign ("n", B.Neg (B.Var "a"));
          B.Assign ("nt", B.Not (B.Var "a"));
          B.Assign ("nt0", B.Not (B.Int 0));
        ];
    }

let test_cg_control () =
  differential
    ~bindings:[ ("n", 7) ]
    {
      B.name = "ctl";
      params = [ "n" ];
      arrays = [];
      results = [ "sum"; "fact"; "branchy" ];
      body =
        [
          B.Assign ("sum", B.Int 0);
          B.For
            ( "i",
              B.Int 0,
              B.Var "n",
              [
                B.Assign ("sum", B.Bin (B.Add, B.Var "sum", B.Var "i"));
              ] );
          B.Assign ("fact", B.Int 1);
          B.Assign ("k", B.Var "n");
          B.While
            ( B.Bin (B.Lt, B.Int 1, B.Var "k"),
              [
                B.Assign ("fact", B.Bin (B.Mul, B.Var "fact", B.Var "k"));
                B.Assign ("k", B.Bin (B.Sub, B.Var "k", B.Int 1));
              ],
              6 );
          B.If
            ( B.Bin (B.Lt, B.Var "sum", B.Var "fact"),
              [ B.Assign ("branchy", B.Int 1) ],
              [ B.Assign ("branchy", B.Int 2) ] );
        ];
    }

let test_cg_arrays () =
  differential
    {
      B.name = "arr";
      params = [];
      arrays = [ ("t", 8) ];
      results = [ "acc" ];
      body =
        [
          B.For
            ( "i",
              B.Int 0,
              B.Int 8,
              [
                B.Store
                  ("t", B.Var "i", B.Bin (B.Mul, B.Var "i", B.Var "i"));
              ] );
          B.Assign ("acc", B.Int 0);
          B.For
            ( "i",
              B.Int 0,
              B.Int 8,
              [
                B.Assign
                  ("acc", B.Bin (B.Add, B.Var "acc", B.Idx ("t", B.Var "i")));
              ] );
        ];
    }

let test_cg_array_bindings () =
  differential
    ~bindings:[ ("x[0]", 5); ("x[1]", 7); ("x[2]", 11) ]
    {
      B.name = "arrbind";
      params = [];
      arrays = [ ("x", 3) ];
      results = [ "s" ];
      body =
        [
          B.Assign
            ( "s",
              B.Bin
                ( B.Add,
                  B.Idx ("x", B.Int 0),
                  B.Bin (B.Add, B.Idx ("x", B.Int 1), B.Idx ("x", B.Int 2)) )
            );
        ];
    }

let test_cg_ports () =
  let proc =
    {
      B.name = "ports";
      params = [];
      arrays = [];
      results = [];
      body =
        [
          B.PortIn ("x", 4);
          B.PortOut (2, B.Bin (B.Mul, B.Var "x", B.Int 3));
        ];
    }
  in
  let out = ref [] in
  let env =
    {
      Cpu.default_env with
      Cpu.port_in = (fun p -> p + 10);
      port_out = (fun p v -> out := (p, v) :: !out);
    }
  in
  let _, _ = Codegen.run_compiled ~env proc [] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "port writes" [ (2, 42) ] !out

let test_cg_channels_as_ports () =
  let proc =
    {
      B.name = "chan";
      params = [];
      arrays = [];
      results = [ "v" ];
      body = [ B.Recv ("v", "c0"); B.Send ("c1", B.Var "v") ];
    }
  in
  let items, lay = Codegen.compile ~chan_ports:[ ("c0", 8); ("c1", 9) ] proc in
  let img = Asm.assemble items in
  let sent = ref [] in
  let env =
    {
      Cpu.default_env with
      Cpu.port_in = (fun p -> if p = 8 then 55 else 0);
      port_out = (fun p v -> sent := (p, v) :: !sent);
    }
  in
  let cpu = Cpu.create ~env img.Asm.code in
  ignore (Cpu.run cpu);
  check Alcotest.int "recv" 55 (Codegen.result lay cpu "v");
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "send" [ (9, 55) ] !sent

let test_cg_missing_chan_port () =
  let proc =
    {
      B.name = "nochan";
      params = [];
      arrays = [];
      results = [];
      body = [ B.Send ("c9", B.Int 1) ];
    }
  in
  try
    ignore (Codegen.compile proc);
    fail "expected missing channel mapping error"
  with Invalid_argument _ -> ()

let test_cg_too_deep () =
  (* build a right-leaning expression 25 deep *)
  let rec deep n = if n = 0 then B.Int 1 else B.Bin (B.Add, B.Int 1, deep (n - 1)) in
  let proc =
    {
      B.name = "deep";
      params = [];
      arrays = [];
      results = [ "x" ];
      body = [ B.Assign ("x", deep 25) ];
    }
  in
  try
    ignore (Codegen.compile proc);
    fail "expected depth error"
  with Invalid_argument _ -> ()

let test_cg_layout () =
  let proc =
    {
      B.name = "lay";
      params = [ "a" ];
      arrays = [ ("t", 10); ("u", 5) ];
      results = [];
      body = [ B.Assign ("b", B.Var "a") ];
    }
  in
  let lay = Codegen.layout_of proc in
  check Alcotest.int "base" Codegen.default_base lay.Codegen.base;
  (* two scalars + 15 array words *)
  check Alcotest.int "data words" 17 lay.Codegen.data_words;
  check Alcotest.bool "arrays after scalars" true
    (List.assoc "t" lay.Codegen.arr_addr
    > List.assoc "b" lay.Codegen.var_addr)

(* qcheck differential: random straight-line arithmetic programs give the
   same results interpreted and compiled. *)
let gen_expr_arb =
  (* depth-bounded expression over vars a,b and small ints *)
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> B.Int i) (int_range (-20) 20);
        oneofl [ B.Var "a"; B.Var "b" ];
      ]
  in
  let op =
    oneofl
      [ B.Add; B.Sub; B.Mul; B.Div; B.Rem; B.And; B.Or; B.Xor;
        B.Lt; B.Le; B.Eq; B.Ne ]
  in
  let rec expr n =
    if n = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (3, map3 (fun o l r -> B.Bin (o, l, r)) op (expr (n - 1)) (expr (n - 1)));
          (1, map (fun e -> B.Neg e) (expr (n - 1)));
          (1, map (fun e -> B.Not e) (expr (n - 1)));
        ]
  in
  expr 4

let prop_codegen_matches_interpreter =
  QCheck.Test.make ~name:"codegen matches interpreter on random exprs"
    ~count:200
    (QCheck.make
       ~print:(fun (e, a, b) ->
         Format.asprintf "a=%d b=%d e=%a" a b B.pp_expr e)
       QCheck.Gen.(
         triple gen_expr_arb (int_range (-100) 100) (int_range (-100) 100)))
    (fun (e, a, b) ->
      let proc =
        {
          B.name = "rand";
          params = [ "a"; "b" ];
          arrays = [];
          results = [ "x" ];
          body = [ B.Assign ("x", e) ];
        }
      in
      let bindings = [ ("a", a); ("b", b) ] in
      let expected = B.run proc bindings in
      let actual, _ = Codegen.run_compiled proc bindings in
      expected = actual)

(* property: parse ∘ print is the identity on arbitrary item lists with
   labels interleaved between instructions (not only appended at the
   end), over every opcode form — all branch conditions, lw/sw offsets,
   custN — and print is a fixpoint through a second pass *)
let gen_asm_items : Asm.item list QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_bound 31 in
  let imm = oneof [ int_range (-1024) 1023; int_range (-100000) 100000 ] in
  let lab = map (Printf.sprintf "L%d") (int_bound 30) in
  let aluop =
    oneofl
      [ Isa.Add; Isa.Sub; Isa.Mul; Isa.Div; Isa.Rem; Isa.And; Isa.Or;
        Isa.Xor; Isa.Shl; Isa.Shr; Isa.Slt; Isa.Seq ]
  in
  let cond = oneofl [ Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge ] in
  let ins =
    oneof
      [
        map3 (fun o (a, b) c -> Isa.Alu (o, a, b, c)) aluop (pair reg reg) reg;
        map3 (fun o (a, b) i -> Isa.Alui (o, a, b, i)) aluop (pair reg reg)
          imm;
        map2 (fun r i -> Isa.Li (r, i)) reg imm;
        map3 (fun a b i -> Isa.Lw (a, b, i)) reg reg imm;
        map3 (fun a b i -> Isa.Sw (a, b, i)) reg reg imm;
        map3 (fun c (a, b) t -> Isa.B (c, a, b, t)) cond (pair reg reg) lab;
        map (fun t -> Isa.J t) lab;
        map2 (fun r t -> Isa.Jal (r, t)) reg lab;
        map (fun r -> Isa.Jr r) reg;
        map2 (fun r p -> Isa.In (r, p)) reg (int_bound 5000);
        map2 (fun p r -> Isa.Out (p, r)) (int_bound 5000) reg;
        map3
          (fun e (a, b) c -> Isa.Custom (e, a, b, c))
          (int_bound 2000) (pair reg reg) reg;
        oneofl [ Isa.Ei; Isa.Di; Isa.Rti; Isa.Nop; Isa.Halt ];
      ]
  in
  list_size (int_range 0 40)
    (frequency
       [
         (1, map (fun l -> Asm.Label l) lab);
         (5, map (fun i -> Asm.Ins i) ins);
       ])

let prop_asm_interleaved_roundtrip =
  QCheck.Test.make ~name:"asm print/parse identity, interleaved labels"
    ~count:300
    (QCheck.make ~print:Asm.print gen_asm_items)
    (fun items ->
      let printed = Asm.print items in
      let reparsed = Asm.parse printed in
      reparsed = items && Asm.print reparsed = printed)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "codesign_isa"
    [
      ( "asm",
        [
          Alcotest.test_case "labels" `Quick test_assemble_labels;
          Alcotest.test_case "errors" `Quick test_assemble_errors;
          Alcotest.test_case "label_of" `Quick test_label_of;
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "parse custom/misc" `Quick
            test_parse_custom_and_misc;
          QCheck_alcotest.to_alcotest prop_asm_interleaved_roundtrip;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "arithmetic" `Quick test_cpu_arith;
          Alcotest.test_case "div by zero" `Quick test_cpu_div_by_zero;
          Alcotest.test_case "r0 hardwired" `Quick test_cpu_r0_hardwired;
          Alcotest.test_case "memory" `Quick test_cpu_memory;
          Alcotest.test_case "mem trap" `Quick test_cpu_mem_trap;
          Alcotest.test_case "pc trap" `Quick test_cpu_pc_trap;
          Alcotest.test_case "fuel" `Quick test_cpu_fuel;
          Alcotest.test_case "cycle counting" `Quick test_cpu_cycles;
          Alcotest.test_case "branch penalty" `Quick
            test_cpu_taken_branch_penalty;
          Alcotest.test_case "jal/jr" `Quick test_cpu_jal_jr;
          Alcotest.test_case "ports" `Quick test_cpu_ports;
          Alcotest.test_case "custom instruction" `Quick test_cpu_custom;
          Alcotest.test_case "interrupt" `Quick test_cpu_interrupt;
          Alcotest.test_case "irq disabled ignored" `Quick
            test_cpu_irq_disabled_ignored;
          Alcotest.test_case "reset" `Quick test_cpu_reset;
          Alcotest.test_case "reset clears irq line + retire cb" `Quick
            test_cpu_reset_clears_irq_and_retire;
          Alcotest.test_case "negative mem_words rejected" `Quick
            test_cpu_create_negative_mem;
          Alcotest.test_case "first_mem_difference = full scan" `Quick
            test_cpu_first_mem_difference;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "hot loop" `Quick test_profiler_hot_loop;
          Alcotest.test_case "entry region" `Quick test_profiler_entry_region;
          Alcotest.test_case "irq entry keeps totals exact" `Quick
            test_profiler_irq_total_cycles;
          Alcotest.test_case "halt keeps pc on the halt site" `Quick
            test_cpu_halt_pc;
          Alcotest.test_case "fuel exhausts exactly at irq entry" `Quick
            test_cpu_fuel_at_irq_boundary;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "arithmetic" `Quick test_cg_arith;
          Alcotest.test_case "bitwise/neg/not" `Quick test_cg_bitwise_neg_not;
          Alcotest.test_case "control flow" `Quick test_cg_control;
          Alcotest.test_case "arrays" `Quick test_cg_arrays;
          Alcotest.test_case "array bindings" `Quick test_cg_array_bindings;
          Alcotest.test_case "ports" `Quick test_cg_ports;
          Alcotest.test_case "channels as ports" `Quick
            test_cg_channels_as_ports;
          Alcotest.test_case "missing channel port" `Quick
            test_cg_missing_chan_port;
          Alcotest.test_case "expression too deep" `Quick test_cg_too_deep;
          Alcotest.test_case "layout" `Quick test_cg_layout;
          QCheck_alcotest.to_alcotest prop_codegen_matches_interpreter;
        ] );
    ]
