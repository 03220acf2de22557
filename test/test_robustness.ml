(* Robustness and cross-cutting property tests: VCD recording, failure
   injection (deadlocks, traps, bad addresses surfacing through the
   stack), PRNG behaviour, and cost-model invariants under random
   inputs. *)

module K = Codesign_sim.Kernel
module Ch = Codesign_sim.Channel
module S = Codesign_sim.Signal
module Vcd = Codesign_sim.Vcd
module Rng = Codesign_ir.Rng
module T = Codesign_ir.Task_graph
module B = Codesign_ir.Behavior
module Pn = Codesign_ir.Process_network
open Codesign
module Tgff = Codesign_workloads.Tgff
module Apps = Codesign_workloads.Apps

let check = Alcotest.check
let fail = Alcotest.fail

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* VCD                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vcd_records_changes () =
  let k = K.create () in
  let s = S.create ~name:"data" k 0 in
  let vcd = Vcd.create k in
  Vcd.watch vcd ~width:8 s;
  K.spawn k (fun () ->
      K.wait 5;
      S.write s 3;
      K.wait 5;
      S.write s 255);
  ignore (K.run ~bound:K.Quiesce k);
  check
    (Alcotest.list
       (Alcotest.triple Alcotest.int Alcotest.string Alcotest.int))
    "changes"
    [ (0, "data", 0); (5, "data", 3); (10, "data", 255) ]
    (Vcd.changes vcd)

let test_vcd_dump_format () =
  let k = K.create () in
  let req = S.create ~name:"req" k 0 in
  let addr = S.create ~name:"addr" k 0 in
  let vcd = Vcd.create k in
  Vcd.watch vcd ~width:1 req;
  Vcd.watch vcd ~width:4 addr;
  K.spawn k (fun () ->
      K.wait 2;
      S.write addr 0b1010;
      S.write req 1;
      K.wait 3;
      S.write req 0);
  ignore (K.run ~bound:K.Quiesce k);
  let doc = Vcd.dump vcd in
  check Alcotest.bool "header" true (contains doc "$timescale 1ns $end");
  check Alcotest.bool "var req" true (contains doc "$var wire 1 ! req $end");
  check Alcotest.bool "var addr" true
    (contains doc "$var wire 4 \" addr $end");
  check Alcotest.bool "scalar change" true (contains doc "1!");
  check Alcotest.bool "vector change" true (contains doc "b1010 \"");
  check Alcotest.bool "time marker" true (contains doc "#2\n");
  (* one #2 section only (grouped) *)
  let count_marker =
    String.split_on_char '\n' doc
    |> List.filter (fun l -> l = "#2")
    |> List.length
  in
  check Alcotest.int "grouped timestamps" 1 count_marker

let test_vcd_on_pin_bus () =
  (* record the actual bus wires during a pin-level transfer *)
  let k = K.create () in
  let map =
    Codesign_bus.Memory_map.create
      [ Codesign_bus.Memory_map.ram ~name:"ram" ~base:0 ~size:16 ]
  in
  let bus = Codesign_bus.Bus.Pin.create k map in
  let vcd = Vcd.create k in
  Vcd.watch vcd ~width:1 (Codesign_bus.Bus.Pin.req_wire bus);
  Vcd.watch vcd ~width:1 (Codesign_bus.Bus.Pin.ack_wire bus);
  K.spawn k (fun () ->
      Codesign_bus.Bus.Pin.write bus 3 7;
      ignore (Codesign_bus.Bus.Pin.read bus 3));
  ignore (K.run ~bound:K.Quiesce k);
  let doc = Vcd.dump vcd in
  (* two transfers: req rises twice, ack rises twice *)
  let rises code =
    String.split_on_char '\n' doc
    |> List.filter (fun l -> l = "1" ^ code)
    |> List.length
  in
  check Alcotest.int "req pulses" 2 (rises "!");
  check Alcotest.int "ack pulses" 2 (rises "\"")

let test_vcd_watcher_quiescent_no_deadlock () =
  (* regression: VCD watchers are daemons, so a simulation that ends
     quiescent with watchers still blocked must not raise Deadlock even
     under the default Drain bound *)
  let k = K.create () in
  let s = S.create ~name:"data" k 0 in
  let vcd = Vcd.create k in
  Vcd.watch vcd ~width:8 s;
  K.spawn k (fun () ->
      K.wait 5;
      S.write s 3);
  ignore (K.run k);
  check
    (Alcotest.list
       (Alcotest.triple Alcotest.int Alcotest.string Alcotest.int))
    "changes recorded" [ (0, "data", 0); (5, "data", 3) ]
    (Vcd.changes vcd)

let test_vcd_dumpvars_initial_values () =
  (* regression: the dump carries a $dumpvars ... $end section with each
     signal's value at watch time, so viewers don't show 'x' until the
     first change *)
  let k = K.create () in
  let req = S.create ~name:"req" k 1 in
  let addr = S.create ~name:"addr" k 0b0110 in
  let vcd = Vcd.create k in
  Vcd.watch vcd ~width:1 req;
  Vcd.watch vcd ~width:4 addr;
  K.spawn k (fun () ->
      K.wait 2;
      S.write addr 0b1010);
  ignore (K.run k);
  let doc = Vcd.dump vcd in
  check Alcotest.bool "dumpvars section" true (contains doc "$dumpvars\n");
  check Alcotest.bool "initial scalar" true (contains doc "$dumpvars\n1!\n");
  check Alcotest.bool "initial vector" true (contains doc "b0110 \"\n$end\n");
  (* the change stream starts after the initial section *)
  check Alcotest.bool "change follows" true (contains doc "#2\nb1010 \"\n")

let test_vcd_wide_value_masked () =
  (* regression: a value wider than the declared width is masked to the
     width, not silently rendered wrong *)
  let k = K.create () in
  let s = S.create ~name:"nib" k 0 in
  let vcd = Vcd.create k in
  Vcd.watch vcd ~width:4 s;
  K.spawn k (fun () ->
      K.wait 1;
      S.write s 0x12 (* 5 bits: only the low nibble 0b0010 fits *));
  ignore (K.run k);
  let doc = Vcd.dump vcd in
  check Alcotest.bool "masked to width" true (contains doc "b0010 !");
  check Alcotest.bool "no truncated-prefix artifact" false
    (contains doc "b10010")

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)
(* ------------------------------------------------------------------ *)

let test_network_deadlock_detected () =
  (* consumer expects more items than the producer sends *)
  let producer = Apps.producer ~chan:"c" ~count:2 () in
  let consumer = Apps.consumer ~chan:"c" ~count:5 ~port:1 () in
  let net =
    Pn.make
      [ (producer, Pn.Sw); (consumer, Pn.Sw) ]
      [ { Pn.cname = "c"; src = "producer"; dst = "consumer"; depth = 1; latency = 0 } ]
  in
  try
    ignore (Cosim.run_network net);
    fail "expected Deadlock"
  with K.Deadlock names ->
    check Alcotest.bool "names the blocked process" true
      (contains names "consumer")

let test_deadlock_names_every_blocked_process () =
  (* several distinct processes blocked on never-fed channels: the
     Deadlock payload must name each blocked non-daemon, and must not
     name daemons or processes that finished cleanly *)
  let k = K.create () in
  let c1 = Ch.create ~depth:1 ~name:"starve1" k () in
  let c2 = Ch.create ~depth:1 ~name:"starve2" k () in
  K.spawn ~name:"eater-one" k (fun () -> ignore (Ch.recv c1));
  K.spawn ~name:"eater-two" k (fun () -> ignore (Ch.recv c2));
  K.spawn ~name:"bystander" k (fun () -> K.wait 10);
  K.spawn ~name:"lurker" ~daemon:true k (fun () -> ignore (Ch.recv c1));
  (try
     ignore (K.run k);
     fail "expected Deadlock"
   with K.Deadlock names ->
     check Alcotest.bool "names eater-one" true (contains names "eater-one");
     check Alcotest.bool "names eater-two" true (contains names "eater-two");
     check Alcotest.bool "omits finished process" false
       (contains names "bystander");
     check Alcotest.bool "omits daemon" false (contains names "lurker"));
  ()

let test_network_trap_surfaces () =
  (* a software process that stores out of its data segment traps; the
     co-simulation must fail loudly, not silently *)
  let bad =
    {
      B.name = "bad";
      params = [];
      arrays = [];
      results = [];
      body = [ B.Store ("nosuch", B.Int 0, B.Int 1) ];
    }
  in
  (* Store to an undeclared array is rejected at compile time *)
  (try
     ignore (Codesign_isa.Codegen.compile bad);
     fail "expected unknown-array failure"
   with Invalid_argument _ -> ());
  ()

let test_network_trap_is_structured () =
  (* a runtime trap (a store into an array bigger than the CPU's data
     memory) must come back as [Net_trapped] data — never as an
     exception unwinding through the scheduler — and the rest of the
     network must keep running to completion *)
  let bad =
    {
      B.name = "bad";
      params = [];
      arrays = [ ("a", 100_000) ];
      results = [];
      body = [ B.Store ("a", B.Int 99_999, B.Int 1) ];
    }
  in
  let healthy = Apps.producer ~chan:"c" ~count:3 () in
  let consumer = Apps.consumer ~chan:"c" ~count:3 ~port:1 () in
  let net =
    Pn.make
      [ (bad, Pn.Sw); (healthy, Pn.Sw); (consumer, Pn.Sw) ]
      [ { Pn.cname = "c"; src = "producer"; dst = "consumer"; depth = 2; latency = 0 } ]
  in
  let r = Cosim.run_network net in
  (match r.Cosim.net_outcome with
  | Cosim.Net_trapped (p, m) ->
      check Alcotest.string "names the trapped process" "bad" p;
      check Alcotest.bool "message says what went wrong" true
        (String.length m > 0)
  | Cosim.Net_completed -> fail "expected Net_trapped");
  check Alcotest.bool "trapped process yields no results" true
    (List.assoc_opt "bad" r.Cosim.sw_results = None);
  check Alcotest.int "healthy consumer still delivered" 1
    (List.length
       (List.filter (fun (p, _, _) -> p = "consumer") r.Cosim.port_writes));
  check Alcotest.bool "healthy process results survive" true
    (List.assoc_opt "consumer" r.Cosim.sw_results <> None)

let test_unmapped_bus_address_raises () =
  let k = K.create () in
  let map =
    Codesign_bus.Memory_map.create
      [ Codesign_bus.Memory_map.ram ~name:"ram" ~base:0 ~size:16 ]
  in
  let bus = Codesign_bus.Bus.Tlm.create k map in
  let saw = ref false in
  K.spawn k (fun () ->
      try ignore (Codesign_bus.Bus.Tlm.read bus 999)
      with Invalid_argument _ -> saw := true);
  ignore (K.run k);
  check Alcotest.bool "unmapped read raised in-process" true !saw

let test_double_resume_rejected () =
  let k = K.create () in
  let resume_cell = ref None in
  K.spawn ~name:"victim" k (fun () ->
      K.suspend ~register:(fun resume -> resume_cell := Some resume));
  K.spawn ~name:"attacker" k (fun () ->
      K.wait 1;
      match !resume_cell with
      | Some resume -> (
          resume ();
          try
            resume ();
            fail "expected double-resume rejection"
          with Invalid_argument _ -> ())
      | None -> fail "no resume captured");
  ignore (K.run k)

let test_channel_mismatched_direction_rejected () =
  (* a process network where a behaviour sends on a channel declared in
     the other direction is rejected statically *)
  let p1 =
    { B.name = "a"; params = []; arrays = []; results = [];
      body = [ B.Send ("c", B.Int 1) ] }
  in
  let p2 =
    { B.name = "b"; params = []; arrays = []; results = [];
      body = [ B.Recv ("x", "c") ] }
  in
  try
    ignore
      (Pn.make
         [ (p1, Pn.Sw); (p2, Pn.Sw) ]
         [ { Pn.cname = "c"; src = "b"; dst = "a"; depth = 0; latency = 0 } ]);
    fail "expected direction mismatch"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same stream" xs ys;
  let c = Rng.create 8 in
  let zs = List.init 50 (fun _ -> Rng.int c 1000) in
  check Alcotest.bool "different seed" true (xs <> zs)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_int_in =
  QCheck.Test.make ~name:"rng int_in inclusive range" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, extent) ->
      let hi = lo + extent in
      let r = Rng.create seed in
      let v = Rng.int_in r lo hi in
      v >= lo && v <= hi)

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let a = Array.init 30 Fun.id in
  let orig = Array.copy a in
  Rng.shuffle r a;
  check Alcotest.bool "same multiset" true
    (List.sort compare (Array.to_list a) = Array.to_list orig);
  check Alcotest.bool "actually moved" true (a <> orig)

(* ------------------------------------------------------------------ *)
(* Cost-model invariants (property-based)                              *)
(* ------------------------------------------------------------------ *)

let arb_graph_and_partition =
  QCheck.make
    ~print:(fun (seed, n, _) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(
      let* seed = int_range 1 500 in
      let* n = int_range 3 14 in
      let* bits = list_repeat n bool in
      return (seed, n, bits))

let graph_of seed n =
  Tgff.generate
    { Tgff.default_spec with Tgff.seed; n_tasks = n; layers = min 4 n }

let prop_comm_cost_monotone =
  QCheck.Test.make ~name:"latency monotone in communication cost"
    ~count:100 arb_graph_and_partition (fun (seed, n, bits) ->
      let g = graph_of seed n in
      let p = Array.of_list bits in
      let lat c =
        (Cost.evaluate
           ~params:{ Cost.default_params with Cost.comm_cycles_per_word = c }
           g p)
          .Cost.latency
      in
      lat 0 <= lat 8 && lat 8 <= lat 64)

let prop_sharing_never_costs_more =
  QCheck.Test.make ~name:"sharing-aware area <= standalone area"
    ~count:100 arb_graph_and_partition (fun (seed, n, bits) ->
      let g = graph_of seed n in
      let p = Array.of_list bits in
      Cost.area_of_partition g p
      <= Cost.area_of_partition
           ~params:{ Cost.default_params with Cost.sharing = false }
           g p)

let prop_all_hw_not_slower_than_serial_hw =
  QCheck.Test.make ~name:"parallel hw <= serial hw latency" ~count:100
    arb_graph_and_partition (fun (seed, n, bits) ->
      let g = graph_of seed n in
      let p = Array.of_list bits in
      let lat par =
        (Cost.evaluate
           ~params:{ Cost.default_params with Cost.hw_parallel = par }
           g p)
          .Cost.latency
      in
      lat true <= lat false)

let prop_speedup_consistent =
  QCheck.Test.make ~name:"speedup = all_sw / latency" ~count:100
    arb_graph_and_partition (fun (seed, n, bits) ->
      let g = graph_of seed n in
      let e = Cost.evaluate g (Array.of_list bits) in
      abs_float
        (e.Cost.speedup
        -. (float_of_int e.Cost.all_sw_latency /. float_of_int e.Cost.latency))
      < 1e-9)

let prop_shared_bus_never_faster =
  QCheck.Test.make ~name:"shared interconnect never shortens a mapping"
    ~count:60
    QCheck.(pair (int_range 1 200) (int_range 3 8))
    (fun (seed, n) ->
      let g =
        Tgff.generate
          { Tgff.default_spec with Tgff.seed; n_tasks = n; layers = min 3 n;
            deadline_factor = 1.5 }
      in
      let exec =
        Array.map
          (fun (t : T.task) ->
            [| max 1 (t.T.sw_cycles / 2); t.T.sw_cycles |])
          g.T.tasks
      in
      let lib =
        [ { Cosynth.pt_name = "fast"; price = 40 };
          { Cosynth.pt_name = "slow"; price = 10 } ]
      in
      let pb = Cosynth.problem ~comm_cycles_per_word:10 g lib ~exec in
      let pb_bus =
        Cosynth.problem ~comm_cycles_per_word:10
          ~interconnect:Cosynth.Shared_bus g lib ~exec
      in
      let rng = Rng.create seed in
      let pe_set = [ 0; 1; Rng.int rng 2 ] in
      let mapping = Array.init n (fun _ -> Rng.int rng 3) in
      Cosynth.makespan pb_bus ~pe_set ~mapping
      >= Cosynth.makespan pb ~pe_set ~mapping)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* CLI help                                                            *)
(* ------------------------------------------------------------------ *)

let cli = Filename.concat (Sys.getcwd ()) "../bin/codesign_cli.exe"

(* Exit code, stdout and stderr of one CLI run. *)
let run_cli args =
  let out = Filename.temp_file "cli" ".out"
  and err = Filename.temp_file "cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args
             (Filename.quote out) (Filename.quote err))
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (rc, read out, read err))

(* The commands the top-level help lists: the first word of each entry
   line (indented seven spaces) in its COMMANDS section. *)
let listed_commands help =
  let rec after_header = function
    | "COMMANDS" :: rest -> rest
    | _ :: rest -> after_header rest
    | [] -> []
  in
  let rec section = function
    | l :: rest when l = "" || l.[0] = ' ' -> l :: section rest
    | _ -> []
  in
  section (after_header (String.split_on_char '\n' help))
  |> List.filter_map (fun l ->
         if String.length l > 7 && String.sub l 0 7 = "       " && l.[7] <> ' '
         then Some (List.hd (String.split_on_char ' ' (String.trim l)))
         else None)

(* Regression: a doc string with a malformed cmdliner markup variable
   made [fuzz --help] print "cmdliner error" twice on stderr.  Every
   subcommand's help must render cleanly. *)
let test_cli_help_renders () =
  let rc, help, err = run_cli "--help=plain" in
  check Alcotest.int "top-level help exit code" 0 rc;
  check Alcotest.string "top-level help stderr" "" err;
  let commands = listed_commands help in
  check
    (Alcotest.list Alcotest.string)
    "every subcommand is listed"
    [ "asip"; "cosim"; "cosynth"; "disasm"; "experiments"; "fault"; "fuzz";
      "kernels"; "partition" ]
    commands;
  List.iter
    (fun c ->
      let rc, out, err = run_cli (c ^ " --help=plain") in
      check Alcotest.int (c ^ " --help exit code") 0 rc;
      check Alcotest.string (c ^ " --help stderr") "" err;
      check Alcotest.bool (c ^ " --help prints help") true (out <> ""))
    commands

(* Integer flags have ranges: outside one, the CLI exits 2 with a parse
   error naming the flag, instead of dying on an uncaught library
   exception (exit 125) or running an empty workload (exit 0).  The
   bounds themselves are valid. *)
let test_cli_int_floors () =
  List.iter
    (fun args ->
      let rc, _, err = run_cli args in
      check Alcotest.int (args ^ ": exit code") 0 rc;
      check Alcotest.string (args ^ ": stderr") "" err)
    [
      "fault --quick --ops 1 --deadline-ms 60000";
      "fuzz --count 0 --deadline-ms 60000";
      "experiments -q --deadline-ms 60000 EXP-P";
      "cosim --items 1";
      "fault --quick --ops 1 --max-retries 0 --cell-fuel 1 --warmup 0";
      "fuzz --count 0 --max-retries 0";
      "experiments -q --max-retries 0 EXP-P";
      "partition --tasks 4";
      "partition --algo exhaustive --tasks 4";
      "cosynth --tasks 4";
      "asip fir --budget 0";
      "cosim --level message --quantum 1 --partitions 3 --link-latency 1";
      "cosim --partitions 1 --link-latency 0";
    ];
  List.iter
    (fun (args, flag) ->
      let rc, out, err = run_cli args in
      check Alcotest.int (args ^ ": exit code") 2 rc;
      check Alcotest.string (args ^ ": stdout") "" out;
      let first = List.hd (String.split_on_char '\n' err) in
      check Alcotest.bool
        (Printf.sprintf "%s: %S names %s" args first flag)
        true
        (String.starts_with ~prefix:("codesign: option '" ^ flag ^ "'") first))
    [
      ("fault --deadline-ms 0", "--deadline-ms");
      ("fuzz --deadline-ms=-1", "--deadline-ms");
      ("experiments --deadline-ms 0", "--deadline-ms");
      ("fuzz --count=-1", "--count");
      ("fault --ops 0", "--ops");
      ("fault --ops=-5", "--ops");
      ("cosim --items=-3", "--items");
      ("fault --max-retries=-1", "--max-retries");
      ("fuzz --max-retries=-1", "--max-retries");
      ("experiments --max-retries=-1", "--max-retries");
      ("partition --tasks 3", "--tasks");
      ("cosynth --tasks=0", "--tasks");
      ("partition --algo exhaustive --tasks 21", "--tasks");
      ("asip fir --budget=-1", "--budget");
      ("partition --budget=-5", "--budget");
      ("fault --cell-fuel 0", "--cell-fuel");
      ("fault --warmup=-3", "--warmup");
      ("cosim --quantum 0", "--quantum");
      ("cosim --partitions 0", "--partitions");
      ("cosim --partitions 4", "--partitions");
      ("cosim --link-latency=-1", "--link-latency");
    ];
  (* the one cross-flag rule: a cut needs a link latency for lookahead *)
  let rc, _, err = run_cli "cosim --partitions 2" in
  check Alcotest.int "cosim --partitions 2: exit code" 2 rc;
  check Alcotest.bool "cosim --partitions 2: names --link-latency" true
    (String.starts_with ~prefix:"cosim: --partitions > 1 needs --link-latency"
       err);
  (* experiment names are an enumeration: an unknown one is a parse
     error that lists every name the registry knows *)
  let rc, out, err = run_cli "experiments nosuch" in
  check Alcotest.int "experiments nosuch: exit code" 2 rc;
  check Alcotest.string "experiments nosuch: stdout" "" out;
  check Alcotest.bool "experiments nosuch: names the bad value" true
    (String.starts_with
       ~prefix:"codesign: NAME\xe2\x80\xa6 arguments: invalid value 'nosuch'"
       err);
  List.iter
    (fun (e : Codesign_experiments.Registry.entry) ->
      List.iter
        (fun name ->
          check Alcotest.bool
            (Printf.sprintf "experiments nosuch: lists %s" name)
            true
            (contains err (Printf.sprintf "'%s'" name)))
        [ e.cli_name; e.exp_id ])
    Codesign_experiments.Registry.all

(* cosim's --level and --levels are one option over
   [Cosim.parse_assignment]: a malformed assignment is a parse error
   naming the spelling used, and giving both spellings is one too. *)
let test_cli_cosim_levels () =
  let rc, _, err = run_cli "cosim --items 1 --levels pin:tlm:message" in
  check Alcotest.int "--levels pin:tlm:message: exit code" 0 rc;
  check Alcotest.string "--levels pin:tlm:message: stderr" "" err;
  List.iter
    (fun (args, prefix) ->
      let rc, out, err = run_cli args in
      check Alcotest.int (args ^ ": exit code") 2 rc;
      check Alcotest.string (args ^ ": stdout") "" out;
      check Alcotest.bool
        (Printf.sprintf "%s: %S" args err)
        true
        (String.starts_with ~prefix err))
    [
      ("cosim --levels pin:tlm", "codesign: option '--levels': bad level");
      ("cosim --level pin:foo:message", "codesign: option '--level': unknown");
      ("cosim --level pin --levels tlm", "codesign: options '--level' and");
    ]

(* A run that cannot write its --out report exits 1 with one line on
   stderr naming the path and the reason, and prints nothing. *)
let test_cli_unwritable_out () =
  List.iter
    (fun path ->
      let args = "fault --quick --ops 1 --out " ^ Filename.quote path in
      let rc, out, err = run_cli args in
      check Alcotest.int (args ^ ": exit code") 1 rc;
      check Alcotest.string (args ^ ": stdout") "" out;
      check Alcotest.bool
        (Printf.sprintf "%s: %S" args err)
        true
        (String.starts_with
           ~prefix:("codesign: cannot write the fault report: " ^ path ^ ": ")
           err
        && List.length (String.split_on_char '\n' (String.trim err)) = 1))
    [ "/nonexistent/dir/r.json"; Filename.get_temp_dir_name () ]

(* ------------------------------------------------------------------ *)
(* the level-assignment reader                                          *)
(* ------------------------------------------------------------------ *)

(* Every spelling [Transport.level_of_string] accepts, in lower case. *)
let level_spellings = [ "pin"; "tlm"; "transaction"; "driver"; "message"; "msg" ]

(* Near misses: level names, case changes, truncations, neighbours and
   junk, joined by ':' (or a wrong separator) into zero to five
   fields. *)
let assignment_text =
  let open QCheck.Gen in
  let field =
    oneof
      [
        oneofl level_spellings;
        map String.uppercase_ascii (oneofl level_spellings);
        oneofl [ ""; "pi"; "tl"; "messages"; "driverr"; " pin"; "foo"; "::" ];
        string_size ~gen:printable (int_range 0 4);
      ]
  in
  let joined =
    map2
      (fun fields sep -> String.concat sep fields)
      (list_size (int_range 0 5) field)
      (frequencyl [ (8, ":"); (1, ","); (1, "") ])
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (oneof [ joined; string_size ~gen:char (int_range 0 12) ])

let prop_parse_assignment_total =
  QCheck.Test.make ~count:2000
    ~name:"parse_assignment never raises, Ok exactly on 1 or 3 levels"
    assignment_text (fun s ->
      let level f = List.mem (String.lowercase_ascii f) level_spellings in
      let valid =
        match String.split_on_char ':' s with
        | [ one ] -> level one
        | [ a; b; c ] -> level a && level b && level c
        | _ -> false
      in
      match Cosim.parse_assignment s with
      | Ok _ -> valid
      | Error _ -> not valid
      | exception e ->
          QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e))

let test_parse_assignment_inverts_name () =
  List.iter
    (fun src ->
      List.iter
        (fun cpu ->
          List.iter
            (fun sink ->
              let a = { Cosim.src; cpu; sink } in
              let name = Cosim.assignment_name a in
              check Alcotest.bool name true
                (Cosim.parse_assignment name = Ok a))
            Cosim.all_levels)
        Cosim.all_levels)
    Cosim.all_levels

let () =
  Alcotest.run "codesign_robustness"
    [
      ( "vcd",
        [
          Alcotest.test_case "records changes" `Quick
            test_vcd_records_changes;
          Alcotest.test_case "dump format" `Quick test_vcd_dump_format;
          Alcotest.test_case "pin bus wires" `Quick test_vcd_on_pin_bus;
          Alcotest.test_case "watcher quiescent, no deadlock" `Quick
            test_vcd_watcher_quiescent_no_deadlock;
          Alcotest.test_case "dumpvars initial values" `Quick
            test_vcd_dumpvars_initial_values;
          Alcotest.test_case "wide value masked" `Quick
            test_vcd_wide_value_masked;
        ] );
      ( "failure_injection",
        [
          Alcotest.test_case "network deadlock detected" `Quick
            test_network_deadlock_detected;
          Alcotest.test_case "deadlock names every blocked process" `Quick
            test_deadlock_names_every_blocked_process;
          Alcotest.test_case "bad store rejected" `Quick
            test_network_trap_surfaces;
          Alcotest.test_case "runtime trap is structured" `Quick
            test_network_trap_is_structured;
          Alcotest.test_case "unmapped address raises" `Quick
            test_unmapped_bus_address_raises;
          Alcotest.test_case "double resume rejected" `Quick
            test_double_resume_rejected;
          Alcotest.test_case "channel direction checked" `Quick
            test_channel_mismatched_direction_rejected;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick
            test_rng_shuffle_permutes;
          QCheck_alcotest.to_alcotest prop_rng_bounds;
          QCheck_alcotest.to_alcotest prop_rng_int_in;
        ] );
      ( "cli",
        [
          Alcotest.test_case "help renders" `Quick test_cli_help_renders;
          Alcotest.test_case "integer flag floors" `Quick test_cli_int_floors;
          Alcotest.test_case "unwritable --out exits 1" `Quick
            test_cli_unwritable_out;
          Alcotest.test_case "cosim level assignment flag" `Quick
            test_cli_cosim_levels;
        ] );
      ( "level_assignment",
        [
          QCheck_alcotest.to_alcotest prop_parse_assignment_total;
          Alcotest.test_case "inverts assignment_name on all 64" `Quick
            test_parse_assignment_inverts_name;
        ] );
      ( "cost_properties",
        [
          QCheck_alcotest.to_alcotest prop_comm_cost_monotone;
          QCheck_alcotest.to_alcotest prop_sharing_never_costs_more;
          QCheck_alcotest.to_alcotest prop_all_hw_not_slower_than_serial_hw;
          QCheck_alcotest.to_alcotest prop_speedup_consistent;
          QCheck_alcotest.to_alcotest prop_shared_bus_never_faster;
        ] );
    ]
